(** Deterministic splittable pseudo-random generator.

    Built on splitmix64 so that simulation runs are exactly reproducible
    from a seed, and independent subsystems can draw from [split] streams
    without interfering with one another. *)

type t

(** [create seed] returns a generator whose stream is a pure function of
    [seed]. *)
val create : int64 -> t

(** [split t] derives a new generator statistically independent of future
    draws from [t]. *)
val split : t -> t

(** [int t bound] draws uniformly from [0, bound). Raises
    [Invalid_argument] if [bound <= 0]. *)
val int : t -> int -> int

(** [int64 t] draws a uniform 64-bit value. *)
val int64 : t -> int64

(** [float t bound] draws uniformly from [0, bound). *)
val float : t -> float -> float

(** [bool t] draws a fair coin. *)
val bool : t -> bool

(** [gaussian t ~mu ~sigma] draws from a normal distribution. *)
val gaussian : t -> mu:float -> sigma:float -> float

(** [exponential t ~mean] draws from an exponential distribution with the
    given mean. Raises [Invalid_argument] if [mean <= 0]. *)
val exponential : t -> mean:float -> float

(** [pick t arr] draws a uniformly random element. Raises
    [Invalid_argument] on an empty array. *)
val pick : t -> 'a array -> 'a

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
