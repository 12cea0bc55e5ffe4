(* Deterministic splittable pseudo-random generator (splitmix64 core).

   Every run of the simulator is reproducible from a single seed; [split]
   derives an independent stream so that adding randomness consumers in one
   subsystem does not perturb the draws seen by another. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = next_int64 t in
  { state = mix64 seed }

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 34) (* 30 bits *)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound = 1 then 0
  else
    (* Rejection sampling over 30-bit draws keeps the distribution uniform. *)
    let rec draw () =
      let r = bits t in
      let v = r mod bound in
      if r - v + (bound - 1) < 0 then draw () else v
    in
    draw ()

let int64 t = next_int64 t

let float t bound =
  if bound < 0.0 then invalid_arg "Rng.float: bound must be non-negative";
  let mantissa = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (mantissa /. 9007199254740992.0) (* 2^53 *)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Box-Muller without caching the second value: simplicity over speed. *)
let gaussian t ~mu ~sigma =
  let rec non_zero () =
    let u = float t 1.0 in
    if u > 0.0 then u else non_zero ()
  in
  let u1 = non_zero () in
  let u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mu +. (sigma *. z)

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  let rec non_zero () =
    let u = float t 1.0 in
    if u > 0.0 then u else non_zero ()
  in
  -.mean *. log (non_zero ())

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
