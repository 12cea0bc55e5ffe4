(* HMAC-SHA256 (RFC 2104). Keys longer than the 64-byte block are hashed
   first, shorter keys are zero-padded, per the RFC.

   The inner/outer key blocks depend only on the key, so a [schedule]
   absorbs them once; each subsequent MAC under the same key copies the
   two contexts instead of re-deriving and re-compressing the padded key
   blocks. Long-lived keys pay the key setup once per key rather than
   twice per message: replica signing keys, and the group key every
   Spines daemon and session client schedules when it is created. *)

let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  if String.length key = block_size then key
  else key ^ String.make (block_size - String.length key) '\000'

let xor_with s byte =
  String.map (fun c -> Char.chr (Char.code c lxor byte)) s

type schedule = { inner : Sha256.ctx; outer : Sha256.ctx }

let schedule ~key =
  let key = normalize_key key in
  let inner = Sha256.init () in
  Sha256.feed_string inner (xor_with key 0x36);
  let outer = Sha256.init () in
  Sha256.feed_string outer (xor_with key 0x5c);
  { inner; outer }

let finish_schedule sched inner_ctx =
  let inner = Sha256.finalize inner_ctx in
  let outer_ctx = Sha256.copy sched.outer in
  Sha256.feed_string outer_ctx inner;
  Sha256.finalize outer_ctx

let mac_sched sched message =
  let ctx = Sha256.copy sched.inner in
  Sha256.feed_string ctx message;
  finish_schedule sched ctx

let mac_list_sched sched parts =
  let ctx = Sha256.copy sched.inner in
  List.iter (Sha256.feed_string ctx) parts;
  finish_schedule sched ctx

let mac ~key message = mac_sched (schedule ~key) message

let mac_list ~key parts = mac_list_sched (schedule ~key) parts

(* Constant-time-style comparison; timing is not observable in the
   simulator but the idiom is kept for fidelity. *)
let equal_tags expected tag =
  String.length expected = String.length tag
  &&
  let diff = ref 0 in
  String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code tag.[i])) expected;
  !diff = 0

let verify_sched sched ~tag message = equal_tags (mac_sched sched message) tag

let verify_list_sched sched ~tag parts = equal_tags (mac_list_sched sched parts) tag

let verify ~key ~tag message = equal_tags (mac ~key message) tag
