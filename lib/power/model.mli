(** Deterministic DC power-flow model derived from a
    {!Plc.Power.scenario}: buses, lines with reactance and thermal
    limits, generation units, loads, and per-island frequency from the
    generation/load balance. Pure — the co-simulation runtime lives in
    {!Net}. *)

type bus = { bus_index : int; bus_name : string }

type line = {
  line_index : int;
  line_name : string; (* breaker name for feeders, "tie.N" for ties *)
  from_bus : int;
  to_bus : int;
  reactance : float;
  limit_mw : float;
  gate : string option; (* gating breaker; None = tie (trips electrically only) *)
}

type unit_gen = {
  gen_index : int;
  gen_name : string;
  gen_bus : int;
  capacity_mw : float;
  gen_gate : string list;
}

type load = { load_index : int; load_name : string; load_bus : int; demand_mw : float }

type t = private {
  scenario : Plc.Power.scenario;
  buses : bus array;
  lines : line array;
  gens : unit_gen array;
  loads : load array;
  line_owner : string array;
  load_owner : string array;
  nominal_hz : float;
  relevant : (string, unit) Hashtbl.t;
}

val of_scenario : Plc.Power.scenario -> t

(** Does this breaker gate any line or generation unit? Changes to
    irrelevant breakers never alter the electrical solution. *)
val breaker_matters : t -> string -> bool

val total_demand_mw : t -> float

type solution = {
  flows_mw : float array;
  line_live : bool array;
  served : bool array;
  served_mw : float;
  shed_mw : float;
  gen_mw : float;
  frequency_hz : float;
  island_of_bus : int array;
  n_islands : int;
  overloads : (int * float) list; (* line index, |flow| / limit > 1 *)
}

(** Solve the DC flow. [breaker_closed] is the physical breaker state;
    [line_in_service] is the electrical (protection) state per line
    index. Deterministic: same inputs give bit-identical outputs. *)
val solve :
  t -> breaker_closed:(string -> bool) -> line_in_service:(int -> bool) -> solution

(** {2 Measurement points}

    Analog telemetry points, one namespace per owning PLC. Names avoid
    [':'], ['='] and [','] so they survive the canonical op encoding:
    ["mw.<line>"] (centi-MW flow), ["st.tie.N"] (tie in service),
    ["inj.<load>"] (centi-MW injection, negative = consumption),
    ["hz"] (milli-Hz system frequency, owned by the first PLC). *)

type point_kind = Flow of int | Tie_status of int | Injection of int | Frequency

type point = { pt_name : string; pt_plc : string; pt_kind : point_kind }

val points : t -> point array

val points_for : t -> plc:string -> point array

(** All point names, sorted — the replicated state's telemetry slots. *)
val point_names : t -> string list

(** Scaled integer reading for one point given a solution and the
    electrical trip predicate. *)
val measure : t -> solution -> point -> tripped:(int -> bool) -> int
