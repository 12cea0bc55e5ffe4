(** Durable state for one SCADA master / Prime replica pair: a
    write-ahead log of executed updates plus periodic authenticated
    checkpoints on the replica's simulated device, with local (disk
    intact) and peer (f + 1 verified checkpoint) recovery paths. *)

type t

(** Creates the WAL on [media] (reopening any surviving segments) and
    registers an execute observer on [replica] that logs every update
    and checkpoints each [config.checkpoint_interval] executions. *)
val create :
  keystore:Crypto.Signature.keystore ->
  keypair:Crypto.Signature.keypair ->
  config:Prime.Config.t ->
  replica:Prime.Replica.t ->
  state:State.t ->
  media:Store.Media.t ->
  t

val media : t -> Store.Media.t

val wal : t -> Store.Wal.t

val counters : t -> Sim.Stats.Counter.t

(** Most recent checkpoint taken or adopted this incarnation. *)
val latest_checkpoint : t -> Store.Checkpoint.t option

(** Bytes of checkpoint payload adopted from peers. *)
val transfer_bytes : t -> int

(** Disk-intact recovery: load the best verified checkpoint slot, replay
    the WAL suffix, and fast-forward the replica. Returns [false] when
    the device holds nothing durable to install (fresh or wiped disk),
    or when the surviving WAL suffix is not contiguous with the loaded
    checkpoint (e.g. the newest slot was corrupted and the older slot's
    covering log prefix was already collected) — the caller then rejoins
    through the f + 1-voted peer transfer instead. *)
val local_recover : t -> bool

(** Adopt a peer checkpoint that won f + 1 matching-root votes: load its
    application state, fast-forward the replica, restart the local log
    from that point. *)
val install_from_peer : t -> Store.Checkpoint.t -> (unit, string) result

(** The replica adopted an install point outside the local log's history
    without a checkpoint to persist (full [App_state_reply] transfer):
    restart the log at that point so it never spans the jump. *)
val rebase : t -> next_exec_pp:int -> exec_seq:int -> cursor:int array -> unit

(** Power loss: the device drops its unsynced tails. *)
val on_crash : t -> unit

(** Destroy the device contents (breach recovery / clean restart). *)
val wipe_disk : t -> unit
