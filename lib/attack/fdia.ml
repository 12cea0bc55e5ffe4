(* False data injection: a compromised RTU proxy replays a
   stale-consistent analog image while the physical grid changes
   underneath it.

   The proxy is the trust boundary the FDIA literature targets: it
   signs whatever it polls, so a foothold on the proxy machine lets the
   attacker rewrite the analog image BEFORE it enters the replicated
   system — no protocol message is malformed, no signature invalid, no
   ordered update lost. The replay is internally consistent (it was a
   real snapshot of a real power flow), which keeps every per-point
   plausibility check quiet. What the attacker cannot fake is
   consistency with the honest neighbours' telemetry and the reported
   breaker topology — exactly the ensemble test the chi-square bad-data
   detector runs.

   The binary (breaker status) path is deliberately left honest: the
   attack's point is that breaker-state invariants stay silent while
   only state estimation notices the lie. *)

type t = { mutable fdia_frozen : (string * int) list option (* snapshot replayed *) }

let find_site deployment site =
  Array.fold_left
    (fun acc (p : Spire.Deployment.proxy_bundle) ->
      if acc = None && String.equal p.Spire.Deployment.p_spec.Plc.Power.plc_name site then
        Some p
      else acc)
    None
    (Spire.Deployment.proxies deployment)

(* Compromise the site's proxy: from the next poll on, the analog image
   it submits is frozen at the first post-compromise snapshot. *)
let launch deployment ~site =
  match find_site deployment site with
  | None -> Error (Printf.sprintf "unknown site %s" site)
  | Some bundle -> (
      match bundle.Spire.Deployment.p_frontend with
      | Spire.Deployment.Modbus_plc _ ->
          Error (Printf.sprintf "site %s is Modbus: no analog image to rewrite" site)
      | Spire.Deployment.Dnp3_rtu _ ->
          let t = { fdia_frozen = None } in
          Scada.Proxy.set_analog_rewrite bundle.Spire.Deployment.p_proxy
            (Some
               (fun readings ->
                 match t.fdia_frozen with
                 | Some snapshot -> snapshot
                 | None ->
                     t.fdia_frozen <- Some readings;
                     readings));
          Ok t)

(* The physical half: flip a breaker at the substation, bypassing the
   supervisory path (an insider or a maintenance-channel actuation).
   The RTU reports the new position honestly — only the analogs lie. *)
let force_open deployment ~breaker =
  match Spire.Deployment.find_breaker deployment breaker with
  | None -> Error (Printf.sprintf "unknown breaker %s" breaker)
  | Some (_, b) ->
      Plc.Breaker.force b Plc.Breaker.Open;
      Ok ()

let frozen t = t.fdia_frozen <> None
