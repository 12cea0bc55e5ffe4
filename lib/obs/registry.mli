(** Telemetry registry: the pipeline-mark span store behind one
    default-off [enabled] switch. Marks cost a load and a branch when
    disabled, and instrumentation is purely passive, so telemetry off
    leaves the deterministic simulation schedule bit-identical. Counts
    live in each module's own [Sim.Stats.Counter] table, not here. *)

type t

(** Standard SCADA pipeline stage names, in causal order. *)

val stage_flip : string
val stage_report : string
val stage_accept : string
val stage_preorder : string
val stage_execute : string
val stage_push : string
val stage_repaint : string
val stage_command : string
val stage_actuate : string

(** Fresh registry, disabled, over the standard pipeline stages. *)
val create : unit -> t

(** The global registry the stack's instrumentation records into. *)
val default : t

val enabled : t -> bool

val set_enabled : t -> bool -> unit

(** Record a pipeline stage mark (see {!Span.mark}); a no-op while
    disabled. *)
val mark : t -> trace:string -> stage:string -> time:float -> unit

val spans : t -> Span.store

(** Drop all recorded marks (keeps the enabled flag). *)
val reset : t -> unit

(** [with_enabled t f]: reset [t], enable it, run [f], restore the
    previous enabled state (even on exceptions). *)
val with_enabled : t -> (unit -> 'a) -> 'a
