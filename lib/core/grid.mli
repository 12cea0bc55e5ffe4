(** Sharded grid: one full Spire deployment per substation shard on a
    shared simulation engine, with a thin coordination tier for
    cross-shard reads. Shards share nothing on the wire, so aggregate
    switch bandwidth and HMI push fan-out scale with the shard count. *)

type shard = { s_index : int; s_label : string; s_deployment : Deployment.t }

type t

(** Build one deployment per shard from the round-robin shard map of
    [scenario]. Options are passed to every {!Deployment.create};
    probes are labelled "@sNN" per shard. *)
val create :
  ?hardened:bool ->
  ?n_hmis:int ->
  ?proxy_poll_period:float ->
  ?dnp3_plcs:string list ->
  ?switch_bandwidth:float ->
  engine:Sim.Engine.t ->
  trace:Sim.Trace.t ->
  config:Prime.Config.t ->
  shards:int ->
  Plc.Power.scenario ->
  t

val map : t -> Scada.Shard.t

val shard_count : t -> int

val shards : t -> shard array

(** Raises [Invalid_argument] out of range. *)
val deployment : t -> int -> Deployment.t

(** Furthest exec_seq any running replica of shard [s] has reached. *)
val exec_frontier : t -> int -> int

type shard_overview = {
  o_shard : int;
  o_label : string;
  o_agreed : bool;  (** f + 1 of the shard's replicas agreed on the digest *)
  o_digest : string;  (** the agreed digest ("" without agreement) *)
  o_exec_frontier : int;
  o_breakers : int;
  o_closed : int;
  o_energized : (string * [ `Energized | `De_energized | `Unknown ]) list;
      (** Tri-state per feed: paths crossing breakers this shard does not
          track report [`Unknown] rather than being conflated with
          de-energized. *)
}

(** Grid-wide overview: ONE aggregated query per shard (not one round
    trip per device), each accepted only when f + 1 of that shard's
    replicas agree on the application-state digest. *)
val overview : t -> shard_overview list

(** Route a supervisory command to the shard owning [breaker]; issued
    through that shard's first HMI and the normal ordered path. Returns
    the shard index. *)
val route_command : t -> breaker:string -> close:bool -> (int, string) result

(** Locate a breaker via the shard map. *)
val find_breaker :
  t -> string -> (Deployment.proxy_bundle * Plc.Breaker.t) option
