(** Flight recorder: a bounded, allocation-conscious ring buffer of
    structured, severity-tagged protocol events, dumped as JSONL on
    demand (and automatically by the chaos runner when an invariant
    trips). Recording is gated on one [enabled] flag and purely passive,
    so a disabled recorder leaves the deterministic schedule
    bit-identical. *)

type severity = Info | Warn | Alarm

val severity_label : severity -> string

type event = {
  ev_seq : int; (* 1-based position in the run's total event order *)
  ev_time : float;
  ev_severity : severity;
  ev_subsystem : string;
  ev_kind : string;
  ev_detail : string;
}

type t

(** Fresh recorder, disabled, retaining at most [capacity] events
    (default 8192). Raises [Invalid_argument] on [capacity <= 0]. *)
val create : ?capacity:int -> unit -> t

(** The global recorder the stack's instrumentation records into. *)
val default : t

val enabled : t -> bool

val set_enabled : t -> bool -> unit

(** [recording t = enabled t]: call sites guard detail-string
    construction with this so the disabled path allocates nothing. *)
val recording : t -> bool

(** Install the timestamp source used when [record] is called without
    [?time] — the enabling harness points it at its simulation engine. *)
val set_clock : t -> (unit -> float) -> unit

(** Subscribe to every recorded event (alert engines). Subscribers run
    in registration order, synchronously, only while enabled. *)
val on_event : t -> (event -> unit) -> unit

(** Record one event; no-op while disabled. Without [?time] the
    installed clock is consulted. *)
val record :
  t -> ?time:float -> severity:severity -> subsystem:string -> kind:string -> string -> unit

(** Drop buffered events and counts (keeps subscribers and clock). *)
val clear : t -> unit

(** [clear] plus subscriber and clock teardown — a campaign's full
    pre-run reset. *)
val reset : t -> unit

(** Events ever recorded (the ring may retain fewer). *)
val total : t -> int

val retained : t -> int

val warn_count : t -> int

val alarm_count : t -> int

(** Retained events, oldest first. *)
val events : t -> event list

val event_to_json : event -> Json.t

(** One JSON object per line, oldest first — byte-identical across
    same-seed runs. *)
val to_jsonl : t -> string

val dump_file : t -> path:string -> unit
