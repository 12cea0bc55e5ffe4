(** Prime replication parameters: n = 3f + 2k + 1 replicas tolerate f
    intrusions while k replicas undergo proactive recovery, with quorums
    of 2f + k + 1. *)

(** A private record: fields read directly, but only [create] builds one,
    so [n] and [quorum] always match [f] and [k]. *)
type t = private {
  f : int; (* tolerated intrusions *)
  k : int; (* simultaneous proactive recoveries *)
  n : int; (* 3f + 2k + 1 *)
  quorum : int; (* 2f + k + 1 *)
  tat_allowance : float; (* acceptable turnaround beyond network delay *)
  log_retention : int; (* ordered-log entries kept for catchup *)
  batch_signing : bool; (* aggregate outbound ack/prepare/commit signatures *)
  batch_window : float; (* accumulation window before a batch flush *)
  sig_cache_capacity : int; (* verified-signature cache entries (0 disables) *)
  checkpoint_interval : int; (* executions between durable checkpoints *)
  wal_segment_size : int; (* bytes per WAL segment before rotation *)
  fsync_every : int; (* WAL appends between durability points *)
}

(** Raises [Invalid_argument] for f < 1, k < 0, tat_allowance <= 0,
    log_retention < 1, and on out-of-range batching/store knobs. *)
val create :
  ?f:int ->
  ?k:int ->
  ?tat_allowance:float ->
  ?log_retention:int ->
  ?batch_signing:bool ->
  ?batch_window:float ->
  ?sig_cache_capacity:int ->
  ?checkpoint_interval:int ->
  ?wal_segment_size:int ->
  ?fsync_every:int ->
  unit ->
  t

(** The 2017 red-team configuration: 4 replicas (f = 1, k = 0). *)
val red_team : unit -> t

(** The 2018 power-plant configuration: 6 replicas (f = 1, k = 1). *)
val power_plant : unit -> t

val replica_ids : t -> int list

val leader_of_view : t -> int -> int

val pp : Format.formatter -> t -> unit
