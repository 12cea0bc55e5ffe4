(** Telemetry export: helpers for the [--json] machine-readable bench
    output and the Section-V reaction-time decomposition. *)

(** A [Sim.Stats.Summary] as a JSON object with [count] and, when
    non-empty, [mean]/[stddev]/[min]/[p50]/[p99]/[max]. *)
val summary_to_json : Sim.Stats.Summary.t -> Json.t

(** The Section-V reaction-time stages (poll, overlay, pre-order,
    order, HMI; consecutive stages telescope) plus the end-to-end pair,
    evaluated over a registry's completed pipeline instances. *)
val reaction_breakdown : Registry.t -> (string * Sim.Stats.Summary.t) list
