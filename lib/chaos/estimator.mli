(** Weighted-least-squares state estimation over the replicated
    telemetry image, with chi-square bad-data detection.

    The estimator trusts exactly what a correct master holds — reported
    breaker positions, tie in-service statuses, line-flow and injection
    telemetry — derives the believed network, solves for bus angles and
    tests the residual objective J(x) against a chi-square critical
    value. Stale-consistent FDIA telemetry keeps every individual point
    plausible but cannot stay consistent with honest neighbours, so J
    fires while breaker-state invariants remain silent. *)

type report = {
  est_measurements : int;  (** real telemetry rows (flows + injections) *)
  est_pseudo : int;  (** zero-injection pseudo rows *)
  est_unknowns : int;  (** free bus angles after per-island references *)
  est_dof : int;
  est_j : float;  (** sum of squared normalized residuals *)
  est_threshold : float;  (** chi-square critical value (p = 0.999) *)
  est_flagged : bool;
  est_worst_point : string;  (** measurement with the largest residual *)
  est_worst_residual : float;  (** in sigmas *)
}

(** One estimation sweep. [None] until the telemetry image holds enough
    measurements to determine the believed network's angles. *)
val evaluate : Power.Model.t -> Scada.State.t -> report option
