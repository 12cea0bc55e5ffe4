(* Weighted-least-squares state estimation with chi-square bad-data
   detection, the classical EMS defence the FDIA literature attacks.

   The estimator sees exactly what a correct SCADA master sees: the
   reported breaker topology plus the replicated telemetry image
   (line flows, bus injections, tie in-service statuses). From the
   breaker/tie picture it derives the network it BELIEVES is live,
   solves WLS for the bus angles, and sums the squared normalized
   residuals into the objective J(x). Honest telemetry is a consistent
   snapshot of one physical solution, so J stays near its chi-square
   expectation; a compromised proxy replaying stale measurements keeps
   every per-point value individually plausible but cannot keep the
   ensemble consistent with the honest neighbours — J blows through the
   detection threshold even though every breaker-state invariant is
   silent. *)

type report = {
  est_measurements : int; (* real telemetry rows (flows + injections) *)
  est_pseudo : int; (* zero-injection + reference pseudo rows *)
  est_unknowns : int; (* free bus angles after per-island reference *)
  est_dof : int;
  est_j : float; (* sum of squared normalized residuals *)
  est_threshold : float; (* chi-square critical value at [confidence] *)
  est_flagged : bool;
  est_worst_point : string; (* largest normalized residual *)
  est_worst_residual : float; (* in sigmas *)
}

(* Measurement weights: analog telemetry is trusted to ~0.05 MW (the
   dead band is 0.02 MW); structural pseudo-measurements (reference
   angles, zero injections at pure junction buses) are near-exact. *)
let sigma_analog = 0.05
let sigma_pseudo = 0.01

(* Tikhonov ridge keeping the normal equations invertible when a
   measurement pattern leaves a direction unobserved. *)
let ridge = 1e-9

(* False-positive control: per-sweep confidence of the chi-square test.
   Wilson-Hilferty gives the critical value without tables. *)
let z_confidence = 3.090232 (* z at p = 0.999 *)

(* Critical value at p = 0.999; [infinity] for dof <= 0, so an
   unobservable system never flags. *)
let chi2_threshold ~dof =
  if dof <= 0 then infinity
  else
    let k = float_of_int dof in
    let t = 1.0 -. (2.0 /. (9.0 *. k)) +. (z_confidence *. sqrt (2.0 /. (9.0 *. k))) in
    k *. t *. t

(* Dense symmetric solve via Gaussian elimination with partial pivoting;
   n is the active bus count, tens not thousands. *)
let solve_dense a b n =
  let x = Array.copy b in
  for col = 0 to n - 1 do
    let pivot = ref col in
    for r = col + 1 to n - 1 do
      if abs_float a.(r).(col) > abs_float a.(!pivot).(col) then pivot := r
    done;
    if !pivot <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!pivot);
      a.(!pivot) <- tmp;
      let t = x.(col) in
      x.(col) <- x.(!pivot);
      x.(!pivot) <- t
    end;
    let p = a.(col).(col) in
    if abs_float p > 1e-12 then
      for r = col + 1 to n - 1 do
        let factor = a.(r).(col) /. p in
        if factor <> 0.0 then begin
          for c = col to n - 1 do
            a.(r).(c) <- a.(r).(c) -. (factor *. a.(col).(c))
          done;
          x.(r) <- x.(r) -. (factor *. x.(col))
        end
      done
  done;
  for col = n - 1 downto 0 do
    let s = ref x.(col) in
    for c = col + 1 to n - 1 do
      s := !s -. (a.(col).(c) *. x.(c))
    done;
    x.(col) <- (if abs_float a.(col).(col) > 1e-12 then !s /. a.(col).(col) else 0.0)
  done;
  x

type row = {
  coeffs : (int * float) list; (* (variable index, coefficient) *)
  z : float;
  sigma : float;
  label : string;
}

let evaluate (model : Power.Model.t) (state : Scada.State.t) =
  let n_buses = Array.length model.Power.Model.buses in
  let telem name = Scada.State.telemetry_value state name in
  (* The topology the estimator believes: feeders follow the reported
     breaker path, ties follow their reported in-service status (an
     unreported tie is presumed live). *)
  let believed_live li =
    let line = model.Power.Model.lines.(li) in
    match line.Power.Model.gate with
    | Some breaker -> Scada.State.reported_closed state breaker
    | None -> (
        match telem ("st." ^ line.Power.Model.line_name) with
        | Some 0 -> false
        | Some _ | None -> true)
  in
  let live = Array.init (Array.length model.Power.Model.lines) believed_live in
  (* Active buses and islands over the believed-live lines. *)
  let adjacency = Array.make n_buses [] in
  Array.iteri
    (fun li (line : Power.Model.line) ->
      if live.(li) then begin
        adjacency.(line.Power.Model.from_bus) <-
          (li, line.Power.Model.to_bus) :: adjacency.(line.Power.Model.from_bus);
        adjacency.(line.Power.Model.to_bus) <-
          (li, line.Power.Model.from_bus) :: adjacency.(line.Power.Model.to_bus)
      end)
    model.Power.Model.lines;
  let island = Array.make n_buses (-1) in
  let n_islands = ref 0 in
  for b = 0 to n_buses - 1 do
    if island.(b) < 0 && adjacency.(b) <> [] then begin
      let id = !n_islands in
      incr n_islands;
      let queue = Queue.create () in
      Queue.push b queue;
      island.(b) <- id;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        List.iter
          (fun (_, v) ->
            if island.(v) < 0 then begin
              island.(v) <- id;
              Queue.push v queue
            end)
          adjacency.(u)
      done
    end
  done;
  (* Variable numbering: every active bus except the per-island
     reference (lowest index) gets a free angle; references are fixed
     at zero by eliminating their column. *)
  let reference = Array.make !n_islands max_int in
  for b = 0 to n_buses - 1 do
    if island.(b) >= 0 && b < reference.(island.(b)) then reference.(island.(b)) <- b
  done;
  let var_of_bus = Array.make n_buses (-1) in
  let n_vars = ref 0 in
  for b = 0 to n_buses - 1 do
    if island.(b) >= 0 && reference.(island.(b)) <> b then begin
      var_of_bus.(b) <- !n_vars;
      incr n_vars
    end
  done;
  let n_vars = !n_vars in
  let bus_coeff b w = if var_of_bus.(b) >= 0 then [ (var_of_bus.(b), w) ] else [] in
  let rows = ref [] in
  let n_real = ref 0 in
  let n_pseudo = ref 0 in
  (* Flow measurements. A line believed open gets an all-zero row: its
     expected flow is exactly zero, so stale nonzero telemetry on it is
     pure residual. *)
  Array.iteri
    (fun li (line : Power.Model.line) ->
      match telem ("mw." ^ line.Power.Model.line_name) with
      | None -> ()
      | Some v ->
          let z = float_of_int v /. 100.0 in
          let coeffs =
            if live.(li) then
              let w = 1.0 /. line.Power.Model.reactance in
              bus_coeff line.Power.Model.from_bus w @ bus_coeff line.Power.Model.to_bus (-.w)
            else []
          in
          incr n_real;
          rows :=
            { coeffs; z; sigma = sigma_analog; label = "mw." ^ line.Power.Model.line_name }
            :: !rows)
    model.Power.Model.lines;
  (* Injection measurements, aggregated per bus (every load at the bus
     must have reported). Model injection at bus b is the sum of flows
     leaving b over believed-live lines. *)
  let injection_coeffs b =
    List.fold_left
      (fun acc (li, other) ->
        let w = 1.0 /. model.Power.Model.lines.(li).Power.Model.reactance in
        bus_coeff b w @ bus_coeff other (-.w) @ acc)
      [] adjacency.(b)
  in
  let loads_at = Array.make n_buses [] in
  Array.iter
    (fun (l : Power.Model.load) ->
      loads_at.(l.Power.Model.load_bus) <- l :: loads_at.(l.Power.Model.load_bus))
    model.Power.Model.loads;
  for b = 1 to n_buses - 1 do
    match loads_at.(b) with
    | [] -> ()
    | loads ->
        let readings = List.map (fun (l : Power.Model.load) -> telem ("inj." ^ l.Power.Model.load_name)) loads in
        if List.for_all Option.is_some readings then begin
          let z =
            List.fold_left (fun acc r -> acc +. (float_of_int (Option.get r) /. 100.0)) 0.0 readings
          in
          incr n_real;
          rows :=
            {
              coeffs = injection_coeffs b;
              z;
              sigma = sigma_analog;
              label = "inj@" ^ model.Power.Model.buses.(b).Power.Model.bus_name;
            }
            :: !rows
        end
  done;
  (* Zero-injection pseudo-measurements: active junction buses carrying
     neither load nor generation inject exactly nothing. *)
  let gen_buses = Hashtbl.create 8 in
  Array.iter
    (fun (g : Power.Model.unit_gen) -> Hashtbl.replace gen_buses g.Power.Model.gen_bus ())
    model.Power.Model.gens;
  for b = 1 to n_buses - 1 do
    if island.(b) >= 0 && loads_at.(b) = [] && not (Hashtbl.mem gen_buses b) then begin
      incr n_pseudo;
      rows :=
        {
          coeffs = injection_coeffs b;
          z = 0.0;
          sigma = sigma_pseudo;
          label = "zero-inj@" ^ model.Power.Model.buses.(b).Power.Model.bus_name;
        }
        :: !rows
    end
  done;
  let rows = Array.of_list (List.rev !rows) in
  let m = Array.length rows in
  if !n_real = 0 || m < n_vars then None
  else begin
    (* Normal equations: (H' W H + ridge I) x = H' W z. *)
    let a = Array.make_matrix n_vars n_vars 0.0 in
    let b = Array.make n_vars 0.0 in
    for i = 0 to n_vars - 1 do
      a.(i).(i) <- ridge
    done;
    Array.iter
      (fun row ->
        let w = 1.0 /. (row.sigma *. row.sigma) in
        List.iter
          (fun (i, ci) ->
            b.(i) <- b.(i) +. (w *. ci *. row.z);
            List.iter (fun (j, cj) -> a.(i).(j) <- a.(i).(j) +. (w *. ci *. cj)) row.coeffs)
          row.coeffs)
      rows;
    let x = solve_dense a b n_vars in
    let j = ref 0.0 in
    let worst = ref ("", 0.0) in
    Array.iter
      (fun row ->
        let predicted = List.fold_left (fun acc (i, c) -> acc +. (c *. x.(i))) 0.0 row.coeffs in
        let r = (row.z -. predicted) /. row.sigma in
        j := !j +. (r *. r);
        if abs_float r > snd !worst then worst := (row.label, abs_float r))
      rows;
    let dof = m - n_vars in
    let threshold = chi2_threshold ~dof in
    Some
      {
        est_measurements = !n_real;
        est_pseudo = !n_pseudo;
        est_unknowns = n_vars;
        est_dof = dof;
        est_j = !j;
        est_threshold = threshold;
        est_flagged = !j > threshold;
        est_worst_point = fst !worst;
        est_worst_residual = snd !worst;
      }
  end
