(** Remote Terminal Unit speaking DNP3: buffers breaker position changes
    as class-1 events with device timestamps (the DNP3 model), serves
    static integrity reads, and executes CROB operate commands. *)

type t

(** Raises [Invalid_argument] if [event_buffer_limit] (default 256) is
    below 1. *)
val create :
  ?event_buffer_limit:int ->
  engine:Sim.Engine.t ->
  n_points:int ->
  unit ->
  t

val pending_events : t -> int

(** Did the event buffer shed an event the master has not acknowledged?
    Carried as the [overflow] flag of every event response (DNP3's
    IIN2.3); the master must integrity-poll. A [Clear_events { through }]
    lowers it only if no event numbered above [through] was shed. *)
val events_overflowed : t -> bool

(** Wire a breaker to a binary point; its changes become events. Raises
    [Invalid_argument] on a bad index. *)
val wire_breaker : t -> index:int -> Breaker.t -> unit

(** Install the analog measurement image served on [Read_analogs]
    (pulled at poll time; signed 32-bit values by point index). *)
val set_analog_source : t -> (unit -> int list) -> unit

(** Process one request (exposed for unit tests). *)
val handle_request : t -> Dnp3.request Dnp3.framed -> Dnp3.response Dnp3.framed

(** Bind the DNP3 outstation service on [host]. *)
val serve_on : t -> Netbase.Host.t -> unit
