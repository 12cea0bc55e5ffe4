(** Bounded per-neighbor egress queue: priority bands drained
    highest-first, round-robin across origins within a band (source
    fairness), overflow dropping lowest-priority traffic first.

    Pure data structure — the node drives flushes off the sim clock and
    applies fault injection at drain time. All ordering (serve order,
    eviction victims) is canonical so same-seed chaos runs replay
    byte-identically. *)

type 'a t

type 'a outcome =
  | Enqueued
  | Rejected  (** queue full and the arrival itself was lowest-priority *)
  | Evicted of 'a
      (** queue full; this lower-priority message was dropped to make room *)

(** Raises [Invalid_argument] if [capacity < 1]. *)
val create : capacity:int -> unit -> 'a t

val length : 'a t -> int

(** Total messages dropped by the overflow policy ([Rejected] arrivals
    plus [Evicted] victims). *)
val drops : 'a t -> int

(** [enqueue t ~prio ~origin msg] admits [msg] unless the queue is at
    capacity; then the lowest-priority message in the queue goes — the
    arrival itself if nothing queued is strictly lower-priority,
    otherwise the oldest message of the most-backlogged origin in the
    lowest band (ties toward the higher origin id). *)
val enqueue : 'a t -> prio:int -> origin:int -> 'a -> 'a outcome

(** Dequeues every queued message in send order:
    priority bands highest-first; within a band one message per origin,
    round-robin in sorted origin order, with the fairness cursor
    persisting across drains. Returns [(prio, origin, msg)] triples. *)
val drain : 'a t -> (int * int * 'a) list
