(* Host speed reference.

   On a shared machine the same simulation costs up to twice the CPU time
   from one second to the next: neighbours contend for the core's caches
   and memory path. A short reference kernel, run between chunks of the
   measured window, slows down with it. Host seconds are reported at the
   reference speed, at which the kernel takes [nominal_s]: raw seconds ×
   [nominal_s] ÷ the kernel's mean time over the same window. A change to
   the program cannot move the kernel, so a slower program still reads
   slower.

   The kernel allocates small blocks into a hash table, as the simulator
   does; a kernel that only reads or writes memory did not follow the
   slowdowns. A minor collection runs before each timed call (untimed,
   and charged to the program), and one call allocates well under a minor
   heap, so the kernel never does the program's collection work. *)

let nominal_s = 3e-3

(* 72 000 small blocks, 216 000 words: under the 256 k-word minor heap. *)
let kernel () =
  let h = Hashtbl.create 256 in
  for i = 1 to 72_000 do
    Hashtbl.replace h (i land 255) (Array.make 2 i)
  done;
  ignore (Sys.opaque_identity h)

type t = {
  mutable calls : int;
  mutable cpu_s : float;
  mutable wall_s : float;
  mutable words : float;  (** minor words the kernel allocated *)
}

let create () = { calls = 0; cpu_s = 0.0; wall_s = 0.0; words = 0.0 }

let tick t =
  Gc.minor ();
  let c0 = Sys.time () and w0 = Unix.gettimeofday () and a0 = Gc.minor_words () in
  kernel ();
  t.cpu_s <- t.cpu_s +. (Sys.time () -. c0);
  t.wall_s <- t.wall_s +. (Unix.gettimeofday () -. w0);
  t.words <- t.words +. (Gc.minor_words () -. a0);
  t.calls <- t.calls + 1

(* Raw seconds rescaled to the reference speed; [clock] picks the CPU or
   the wall-clock mean of the kernel. The mean, not the median: the raw
   seconds are a sum over the same stretch of time. *)
let scale t ~clock raw =
  let total = match clock with `Cpu -> t.cpu_s | `Wall -> t.wall_s in
  raw *. nominal_s *. float_of_int t.calls /. total
