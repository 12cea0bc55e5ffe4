(* SHA-256 (FIPS 180-4), pure OCaml.

   No crypto package is available in this environment, so the hash the
   whole system depends on is implemented here and checked against the
   FIPS test vectors in the test suite.

   Implementation notes. This hash runs on every simulated protocol
   message (link MACs, signatures, Merkle nodes), so the kernel is the
   simulator's hottest loop.
   - State and message schedule are native [int]s holding 32-bit words:
     OCaml's 63-bit immediates avoid the boxing Int32 arithmetic causes.
     Sums are masked only where a word feeds a rotate or the state.
   - A rotate right by [n] is one shift of the word copied into its own
     upper half: [(x lor (x lsl 32)) lsr n], masked to 32 bits. The copy
     loses bit 31 off the top of the 63-bit int, but a rotate by 1..31
     never reads it, and SHA-256 only rotates by 2..25. Each sigma
     function builds the doubled word once and masks once.
   - Block words load with [Bytes.get_int32_be]; the fixed 64-entry [k]
     and [w] arrays are read without bounds checks.
   - [finalize] pads in place in the block buffer (0x80, zeros to 56 mod
     64, the 64-bit big-endian bit length) and compresses once or twice;
     it allocates only the 32-byte digest. *)

type digest = string (* 32 raw bytes *)

let mask = 0xFFFFFFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

(* The 64-entry message schedule is scratch for one compression, so one
   array serves every context. [compress] never calls out, so the
   single-threaded simulator cannot re-enter it. *)
let w = Array.make 64 0

type ctx = {
  state : int array; (* 8 words, each < 2^32 *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total_len : int; (* bytes; simulator messages stay well below 2^59 *)
}

let init () =
  {
    state =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
        0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total_len = 0;
  }

(* The four sigma functions; [x] must be < 2^32. *)
let[@inline] big_sigma0 x =
  let xx = x lor (x lsl 32) in
  ((xx lsr 2) lxor (xx lsr 13) lxor (xx lsr 22)) land mask

let[@inline] big_sigma1 x =
  let xx = x lor (x lsl 32) in
  ((xx lsr 6) lxor (xx lsr 11) lxor (xx lsr 25)) land mask

let[@inline] small_sigma0 x =
  let xx = x lor (x lsl 32) in
  ((xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3)) land mask

let[@inline] small_sigma1 x =
  let xx = x lor (x lsl 32) in
  ((xx lsr 17) lxor (xx lsr 19) lxor (x lsr 10)) land mask

(* Compression-function calls, process-wide: a deterministic hashing
   cost for benches to report. *)
let compression_count = ref 0

let compress ctx block off =
  incr compression_count;
  for i = 0 to 15 do
    Array.unsafe_set w i (Int32.to_int (Bytes.get_int32_be block (off + (i * 4))) land mask)
  done;
  for i = 16 to 63 do
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16)
       + small_sigma0 (Array.unsafe_get w (i - 15))
       + Array.unsafe_get w (i - 7)
       + small_sigma1 (Array.unsafe_get w (i - 2)))
      land mask)
  done;
  let state = ctx.state in
  let a = ref state.(0) and b = ref state.(1) and c = ref state.(2) and d = ref state.(3) in
  let e = ref state.(4) and f = ref state.(5) and g = ref state.(6) and h = ref state.(7) in
  for i = 0 to 63 do
    let e' = !e and a' = !a in
    let ch = !g lxor (e' land (!f lxor !g)) in
    let t1 = !h + big_sigma1 e' + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let maj = (a' land !b) lor (!c land (a' lor !b)) in
    h := !g;
    g := !f;
    f := e';
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := a';
    a := (t1 + big_sigma0 a' + maj) land mask
  done;
  state.(0) <- (state.(0) + !a) land mask;
  state.(1) <- (state.(1) + !b) land mask;
  state.(2) <- (state.(2) + !c) land mask;
  state.(3) <- (state.(3) + !d) land mask;
  state.(4) <- (state.(4) + !e) land mask;
  state.(5) <- (state.(5) + !f) land mask;
  state.(6) <- (state.(6) + !g) land mask;
  state.(7) <- (state.(7) + !h) land mask

let feed_sub ctx b off len =
  ctx.total_len <- ctx.total_len + len;
  let pos = ref off in
  let stop = off + len in
  (* Fill a partially-filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = min need len in
    Bytes.blit b !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks straight from the input. *)
  while stop - !pos >= 64 do
    compress ctx b !pos;
    pos := !pos + 64
  done;
  if !pos < stop then begin
    Bytes.blit b !pos ctx.buf 0 (stop - !pos);
    ctx.buf_len <- stop - !pos
  end

let feed_string ctx s =
  feed_sub ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let feed_bytes ctx b = feed_sub ctx b 0 (Bytes.length b)

(* Independent continuation of a partially-fed context. *)
let copy ctx = { ctx with state = Array.copy ctx.state; buf = Bytes.copy ctx.buf }

let finalize ctx =
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  (* No room for the length after the 0x80: pad this block out, compress
     it, and put the length in a block of zeros. *)
  if n >= 56 then begin
    Bytes.fill buf (n + 1) (63 - n) '\000';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\000';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total_len * 8));
  compress ctx buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (i * 4) (Int32.of_int ctx.state.(i))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed_string ctx s;
  finalize ctx

let digest_list parts =
  let ctx = init () in
  List.iter (feed_string ctx) parts;
  finalize ctx

let to_hex d =
  let hex = "0123456789abcdef" in
  let out = Bytes.create (2 * String.length d) in
  String.iteri
    (fun i c ->
      Bytes.set out (2 * i) hex.[Char.code c lsr 4];
      Bytes.set out ((2 * i) + 1) hex.[Char.code c land 0xF])
    d;
  Bytes.unsafe_to_string out

let hex_of_string s = to_hex (digest s)

let compressions () = !compression_count
