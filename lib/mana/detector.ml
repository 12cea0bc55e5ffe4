(* MANA: Machine-learning Assisted Network Analyzer.

   Operation mirrors the paper's deployments:
   1. a training phase over a baseline capture (24 h at the red-team
      exercise, 12 h at the plant) builds per-feature Gaussian statistics
      and a k-means model of normal windows. The detector reads the
      mirror port as a stream: each window is folded into features as
      its records arrive, and no captured frame is kept;
   2. detection scores each subsequent window by z-score and
      cluster distance, entirely passively;
   3. persistent anomalies raise alerts tagged with the dominant feature,
      giving the operator the situational awareness Section III-C argues
      for. *)

type alert = {
  alert_time : float;
  score : float;
  dominant_feature : string;
  category : string;
}

type model = {
  means : float array;
  stds : float array;
  clusters : Kmeans.t;
  baseline_distance : float; (* typical nearest-centroid distance in training *)
}

type t = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  features : Features.t;
  window : float;
  threshold : float;
  consecutive_required : int;
  train_until : float;
  mutable model : model option;
  (* Feature vectors of the closed training windows, newest first. *)
  mutable training : float array list;
  (* The open window is [window_start, window_end), accumulating in
     [features]. No window is open once the training windows are closed
     and until detection opens one at [window_start]; meanwhile records
     wait in [pending], as does a record stamped past the open window. *)
  mutable window_open : bool;
  mutable window_start : float;
  mutable window_end : float;
  pending : Netbase.Pcap.record Queue.t;
  mutable alerts : alert list;
  mutable consecutive : int;
  mutable windows_scored : int;
  counters : Sim.Stats.Counter.t;
}

let alerts t = List.rev t.alerts

let windows_scored t = t.windows_scored

let is_trained t = t.model <> None

(* Route a record to the open window, or hold it for a later one. A record
   stamped before the open window has no window left to join. *)
let file t (r : Netbase.Pcap.record) =
  if r.time >= t.window_end then Queue.push r t.pending
  else if r.time >= t.window_start then Features.add t.features r

let open_window t start =
  t.window_start <- start;
  t.window_end <- start +. t.window;
  t.window_open <- true;
  for _ = 1 to Queue.length t.pending do
    file t (Queue.pop t.pending)
  done

(* Training windows start at t0 and follow one another while they start
   before t1. *)
let close_training_window t =
  t.training <- Features.close t.features :: t.training;
  let next = t.window_end in
  if next >= t.train_until then t.window_open <- false
  else begin
    t.window_start <- next;
    t.window_end <- next +. t.window
  end

(* The mirror-port reader. Time-ordered records close the training
   windows they pass, empty ones included; flows are learned only from
   records stamped before t1. *)
let observe t (r : Netbase.Pcap.record) =
  if t.model = None && t.window_open then begin
    if r.time >= t.train_until then
      while t.window_open do
        close_training_window t
      done
    else
      while r.time >= t.window_end do
        close_training_window t
      done
  end;
  if t.window_open then file t r else Queue.push r t.pending

let create ?(window = 1.0) ?(threshold = 6.0) ?(consecutive_required = 2) ~engine ~trace
    ~baseline:(t0, t1) pcap =
  let t =
    {
      engine;
      trace;
      features = Features.create ();
      window;
      threshold;
      consecutive_required;
      train_until = t1;
      model = None;
      training = [];
      window_open = t0 < t1;
      window_start = t0;
      window_end = t0 +. window;
      pending = Queue.create ();
      alerts = [];
      consecutive = 0;
      windows_scored = 0;
      counters = Sim.Stats.Counter.create ();
    }
  in
  Netbase.Pcap.subscribe pcap (observe t);
  t

let train t ~rng =
  (* Learning mode: flows seen in the training windows became the
     known-baseline set. *)
  while t.window_open do
    close_training_window t
  done;
  let vectors = List.rev t.training in
  t.training <- [];
  if vectors = [] then invalid_arg "Detector.train: empty baseline capture";
  Features.freeze t.features;
  let dim = Features.dimensions in
  let n = float_of_int (List.length vectors) in
  let means = Array.make dim 0.0 in
  List.iter (fun v -> Array.iteri (fun i x -> means.(i) <- means.(i) +. x) v) vectors;
  Array.iteri (fun i s -> means.(i) <- s /. n) means;
  let stds = Array.make dim 0.0 in
  List.iter
    (fun v -> Array.iteri (fun i x -> stds.(i) <- stds.(i) +. ((x -. means.(i)) ** 2.0)) v)
    vectors;
  (* Std floor: at least 5% of the feature's mean (constant SCADA traffic
     has near-zero variance) and at least the feature's scale-appropriate
     absolute floor, so z-scores stay comparable across features of very
     different magnitudes. *)
  Array.iteri
    (fun i s ->
      stds.(i) <-
        Float.max
          (Float.max Features.std_floors.(i) (0.05 *. Float.abs means.(i)))
          (sqrt (s /. n)))
    stds;
  let normalize v = Array.mapi (fun i x -> (x -. means.(i)) /. stds.(i)) v in
  let normalized = List.map normalize vectors in
  let clusters = Kmeans.train ~rng ~k:4 ~iterations:10 normalized in
  let baseline_distance =
    let total = List.fold_left (fun acc v -> acc +. Kmeans.distance clusters v) 0.0 normalized in
    Float.max 0.5 (total /. n)
  in
  t.model <- Some { means; stds; clusters; baseline_distance };
  t.window_start <- t.train_until;
  Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"mana"
    "trained on %d windows (%d baseline flows)" (List.length vectors)
    (Features.known_flow_count t.features)

(* Category heuristics: name the attack family from the dominant feature,
   as the situational awareness board does for the plant engineers. *)
let categorize feature =
  match feature with
  | "arp_requests" | "arp_replies" | "unsolicited_arp_ratio" -> "arp-anomaly"
  | "max_fanout" | "new_flow_count" -> "scan-or-probe"
  | "total_packets" | "total_bytes" | "max_flow_packets" -> "volume-flood"
  | "flow_count" -> "new-communication-pattern"
  | _ -> "anomaly"

(* Several features spike together under most attacks (a port scan also
   raises packet counts); among the comparably-dominant features, prefer
   the most *specific* signal so the alert names the attack family. *)
let specificity feature =
  match feature with
  | "unsolicited_arp_ratio" -> 6
  | "arp_requests" | "arp_replies" -> 5
  | "max_fanout" -> 4
  | "new_flow_count" -> 3
  | "max_flow_packets" -> 2
  | "flow_count" -> 1
  | _ -> 0 (* total_packets, total_bytes, mean_packet_size *)

let score_window model v =
  let z = Array.mapi (fun i x -> Float.abs ((x -. model.means.(i)) /. model.stds.(i))) v in
  let max_z = Array.fold_left Float.max 0.0 z in
  let dominant = ref 0 in
  Array.iteri
    (fun i x ->
      if
        x >= 0.5 *. max_z
        && (z.(!dominant) < 0.5 *. max_z
           || specificity Features.feature_names.(i) > specificity Features.feature_names.(!dominant)
           )
      then dominant := i)
    z;
  let normalized = Array.mapi (fun i x -> (x -. model.means.(i)) /. model.stds.(i)) v in
  let cluster_distance = Kmeans.distance model.clusters normalized /. model.baseline_distance in
  let score = Float.max max_z cluster_distance in
  (score, Features.feature_names.(!dominant))

(* Close the open detection window and score it; raises alerts on
   persistent anomalies. *)
let evaluate t =
  match t.model with
  | None -> invalid_arg "Detector.evaluate: not trained"
  | Some model ->
      if not t.window_open then open_window t t.window_start;
      let v = Features.close t.features in
      open_window t t.window_end;
      let score, dominant = score_window model v in
      t.windows_scored <- t.windows_scored + 1;
      Sim.Stats.Counter.incr t.counters "windows";
      if score > t.threshold then begin
        t.consecutive <- t.consecutive + 1;
        if t.consecutive >= t.consecutive_required then begin
          let category = categorize dominant in
          let alert =
            { alert_time = Sim.Engine.now t.engine; score; dominant_feature = dominant; category }
          in
          t.alerts <- alert :: t.alerts;
          Sim.Stats.Counter.incr t.counters "alerts";
          Sim.Stats.Counter.incr t.counters ("alert." ^ category);
          Sim.Trace.record t.trace ~time:alert.alert_time ~category:"mana"
            "ALERT %s (score %.1f, feature %s)" category score dominant
        end
      end
      else t.consecutive <- 0

(* Run detection continuously: windows start now, and one closes per
   period. *)
let start t =
  if t.model = None then invalid_arg "Detector.start: not trained";
  if t.window_open then invalid_arg "Detector.start: already detecting";
  open_window t (Sim.Engine.now t.engine);
  Sim.Engine.every t.engine ~period:t.window (fun () -> evaluate t)

let alert_categories t =
  List.sort_uniq String.compare (List.map (fun a -> a.category) (alerts t))
