(** Field proxy: the device's plain field protocol (Modbus to a PLC or
    DNP3 to an RTU) over a dedicated wire on one side, signed SCADA
    traffic toward the replicated masters on the other. Status reporting,
    poll aggregation and the f + 1 command threshold that keeps a single
    compromised master from operating field equipment are the same for
    both protocols. *)

type t

(** The UDP port the proxy's Modbus client answers on. *)
val modbus_local_port : int

(** The UDP port the proxy's DNP3 master answers on. *)
val dnp3_local_port : int

(** The device at the far end of the proxy's cable. A Modbus PLC is
    polled for its whole register image. A DNP3 RTU gets fast class-1
    event polls plus integrity polls; when [analog_names] (the RTU's
    analog points, in point index order) is non-empty, the event poll
    also reads analogs and ships dead-band-filtered changes as Telemetry
    ops. *)
type device =
  | Modbus of { plc_ip : Netbase.Addr.Ip.t }
  | Dnp3 of { rtu_ip : Netbase.Addr.Ip.t; analog_names : string list }

(** [breaker_names] are indexed by coil address (Modbus) or binary point
    index (DNP3). *)
val create :
  engine:Sim.Engine.t ->
  trace:Sim.Trace.t ->
  keystore:Crypto.Signature.keystore ->
  config:Prime.Config.t ->
  host:Netbase.Host.t ->
  device:device ->
  breaker_names:string list ->
  client:Prime.Client.t ->
  string ->
  t

val name : t -> string

val counters : t -> Sim.Stats.Counter.t

(** Observer invoked each time a breaker command passes the f+1 gate and
    is actuated on the device — exactly once per decided key. Chaos
    invariant checks use it to assert at-most-once actuation. *)
val set_on_actuate : t -> (key:string -> breaker:string -> close:bool -> unit) -> unit

(** FDIA hook: rewrite the polled analog image (name, value) before
    dead-band filtering and submission. [None] restores honesty. The
    binary (breaker) path is not affected — which is exactly what makes
    the attack invisible to breaker-state invariants. Raises
    [Invalid_argument] on a Modbus proxy, which has no analog image. *)
val set_analog_rewrite : t -> ((string * int) list -> (string * int) list) option -> unit

(** Handle a payload from the replicated system (breaker commands, Prime
    client replies). *)
val handle_payload : t -> Netbase.Packet.payload -> unit

(** Bind the field client port and start polling: a Modbus proxy reads
    the register image every [poll_period]; a DNP3 proxy event-polls
    every [poll_period] and integrity-polls at 20x that. *)
val start : t -> poll_period:float -> unit

(** Forget last-reported positions (and analog readings) so the next
    poll re-submits everything (used by the ground-truth rebuild). *)
val reset_reporting : t -> unit
