(** SCADA operations: the application payload of replicated updates.
    Encodings are canonical (they are what clients sign). *)

type t =
  | Status of { breaker : string; closed : bool } (* field report from a proxy *)
  | Command of { breaker : string; close : bool } (* supervisory command from an HMI *)
  | Batch of { origin : string; cursor : int; reports : (string * bool) list }
      (** Aggregated poll report: every position change one proxy polling
          round observed, ordered as a single update. [cursor] is the
          origin proxy's monotone batch sequence; replicas ignore batches
          at or below the last cursor applied for that origin, so a
          faulty client replaying an old aggregate under a fresh client
          sequence cannot rewind positions. *)
  | Telemetry of { origin : string; cursor : int; readings : (string * int) list }
      (** Aggregated analog measurement report (line MW flows, bus
          injections, frequency) from one proxy polling round, as scaled
          signed integers by point name. Shares the origin's monotone
          batch cursor, so stale telemetry cannot overwrite fresh. *)

val encode : t -> string

(** [None] on malformed input (faulty clients must not crash replicas). *)
val decode : string -> t option

(** Device updates carried: 1 per status, 0 per command or telemetry,
    report count per batch. *)
val updates : t -> int
