(** Shard map: deterministic partition of a power scenario's sites into
    substation shards, each served by its own Prime-replicated master
    group. Sites are dealt round-robin in scenario order, so the map is
    a pure function of (scenario, shards); breakers and feeds follow
    their site. *)

type t

(** Raises [Invalid_argument] when [shards < 1]. *)
val create : shards:int -> Plc.Power.scenario -> t

val shards : t -> int

(** The scenario slice owned by one shard; its name is suffixed
    "/sNN". Raises [Invalid_argument] out of range. *)
val sub_scenario : t -> int -> Plc.Power.scenario

val shard_of_site : t -> string -> int option

val shard_of_breaker : t -> string -> int option

(** Stable short shard label ("s03") used in probe suffixes and monitor
    grouping. *)
val label : int -> string
