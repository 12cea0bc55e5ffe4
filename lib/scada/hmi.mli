(** Human-Machine Interface: renders the power topology from display
    updates (accepted only with f + 1 agreeing replicas) and issues
    supervisory commands. [on_display_change] is the Section V
    measurement point. *)

type t

val create :
  engine:Sim.Engine.t ->
  trace:Sim.Trace.t ->
  keystore:Crypto.Signature.keystore ->
  config:Prime.Config.t ->
  scenario:Plc.Power.scenario ->
  client:Prime.Client.t ->
  string ->
  t

(** Hook fired whenever a display cell repaints. *)
val on_display_change : t -> (breaker:string -> closed:bool -> unit) -> unit

val displayed_closed : t -> string -> bool option

val energized_loads : t -> (string * bool) list

(** Operator action; returns the Prime client sequence. *)
val command : t -> breaker:string -> close:bool -> int

(** Handle a payload from the replicated system. *)
val handle_payload : t -> Netbase.Packet.payload -> unit

(** Text rendering of the topology screen. *)
val render : t -> string
