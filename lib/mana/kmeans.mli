(** k-means clustering for the anomaly model: distance to the nearest
    baseline centroid measures how far a traffic window strays from any
    behaviour seen in training. Deterministic given the RNG stream. *)

type t

(** Raises [Invalid_argument] on empty data. [k] is capped at the number
    of points. *)
val train : rng:Sim.Rng.t -> k:int -> iterations:int -> float array list -> t

val distance : t -> float array -> float
