(* Spire benchmark: one seeded workload per run, repeated on the same
   seed until the run's time is spent.

     spire_bench --workload plant|order|grid --seed N --seconds S
                 --trace 0|1

   Every repetition rebuilds the system from the seed, so each one must
   reproduce the first exactly on the virtual clock: every virtual-time
   figure and every counter is fingerprinted and compared, and any
   difference is an error. Host figures (CPU, wall, heap) are medians
   over the repetitions. With [--trace 0] the last stdout line carries
   the end-to-end metrics; with [--trace 1] repetitions alternate between
   untraced and traced (Obs registry and flight recorder on), each ends
   with the workload's recovery pass, and it carries the per-layer
   metrics. A run with an invariant violation, a
   determinism break, an unconfirmed [order] update or a p99 from fewer
   than 1 000 samples prints its errors, an empty metric set and exits 1. *)

let wall () = Unix.gettimeofday ()

type rep = {
  traced : bool;
  setup_s : float;  (** at the reference speed (see [Hostclock]) *)
  cpu_s : float;  (** raw CPU of the window, reference kernel excluded *)
  wall_s : float;
  ref_cpu_s : float;  (** [cpu_s] and [wall_s] at the reference speed *)
  ref_wall_s : float;
  sim_s : float;
  window : (string * int) list;  (** counter deltas over the measured window *)
  recovery : (string * int) list;  (** counter deltas over the recovery pass *)
  outcome : Workloads.outcome;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  live_mb : float;  (** live heap the system holds at the window's end *)
  handle_calls : int;
  handle_ns : float;
  obs : (string * float) list;  (** traced repetitions only *)
}

(* --- one repetition ------------------------------------------------------ *)

let stage_metrics =
  [
    ("proxy poll", "stage.poll_ms");
    ("overlay + accept", "stage.overlay_ms");
    ("pre-order", "stage.preorder_ms");
    ("order + execute", "stage.order_ms");
    ("HMI delivery", "stage.hmi_ms");
  ]

let read_obs () =
  let reg = Obs.Registry.default in
  let spans = Obs.Registry.spans reg in
  let breakdown = Obs.Export.reaction_breakdown reg in
  List.map
    (fun (label, name) ->
      let mean =
        match List.assoc_opt label breakdown with
        | Some s when Sim.Stats.Summary.count s > 0 -> 1000.0 *. Sim.Stats.Summary.mean s
        | _ -> 0.0
      in
      (name, mean))
    stage_metrics
  @ [
      ("obs.spans_completed", float_of_int (Obs.Span.completed_count spans));
      ("obs.orphan_marks", float_of_int (Obs.Span.orphan_count spans));
      ("obs.flight_events", float_of_int (Obs.Flight.total Obs.Flight.default));
    ]

let set_tracing on =
  Obs.Registry.reset Obs.Registry.default;
  Obs.Registry.set_enabled Obs.Registry.default on;
  Obs.Flight.reset Obs.Flight.default;
  Obs.Flight.set_enabled Obs.Flight.default on;
  if not on then Obs.Flight.set_clock Obs.Flight.default (fun () -> 0.0)

(* Wall time of a build and warm-up at the reference speed, the kernel
   timed just before and just after it. *)
let timed_setup ~workload ~seed ~timed =
  let clock = Hostclock.create () in
  Hostclock.tick clock;
  let w0 = wall () in
  let r = Workloads.setup ~timed ~seed workload in
  let raw = wall () -. w0 in
  Hostclock.tick clock;
  (Hostclock.scale clock ~clock:`Wall raw, r)

let words_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

let run_rep ~workload ~seed ~traced ~recovery =
  (* Health probes hold closures over the previous repetition's system;
     drop them so the baseline below does not count it. *)
  Obs.Probe.reset Obs.Probe.default;
  (* [Gc.quick_stat]'s live count is not refreshed by a compaction;
     [Gc.stat] walks the heap and is exact. *)
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  set_tracing traced;
  let timer = Workloads.handle_timer in
  timer.calls <- 0;
  timer.ns <- 0.0;
  let setup_s, r = timed_setup ~workload ~seed ~timed:traced in
  if traced then Obs.Flight.set_clock Obs.Flight.default (fun () -> Sim.Engine.now r.engine);
  let before = r.counts () in
  let g0 = Gc.quick_stat () in
  let clock = Hostclock.create () in
  let c0 = Sys.time () and t0 = wall () in
  r.measure ~tick:(fun () -> Hostclock.tick clock);
  let cpu_s = Sys.time () -. c0 -. clock.Hostclock.cpu_s in
  let wall_s = wall () -. t0 -. clock.Hostclock.wall_s in
  let g1 = Gc.quick_stat () in
  Gc.full_major ();
  let live_mb = words_mb ((Gc.stat ()).Gc.live_words - live0) in
  let after = r.counts () in
  let window = Tally.delta ~before ~after in
  let recovery =
    if recovery then begin
      r.recover ();
      Tally.delta ~before:after ~after:(r.counts ())
    end
    else []
  in
  let outcome = r.finish () in
  let obs = if traced then read_obs () else [] in
  set_tracing false;
  {
    traced;
    setup_s;
    cpu_s;
    wall_s;
    ref_cpu_s = Hostclock.scale clock ~clock:`Cpu cpu_s;
    ref_wall_s = Hostclock.scale clock ~clock:`Wall wall_s;
    sim_s = r.run_end -. r.warmup_end;
    window;
    recovery;
    outcome;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words -. clock.Hostclock.words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    live_mb;
    handle_calls = timer.calls;
    handle_ns = timer.ns;
    obs;
  }

(* Everything a repetition must reproduce exactly: counters and every
   virtual-time observation, floats in lossless hex. *)
let fingerprint rep =
  let b = Buffer.create 4096 in
  let floats l = List.iter (fun x -> Buffer.add_string b (Printf.sprintf "%h;" x)) l in
  let counts = List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s=%d;" k v)) in
  counts rep.window;
  counts rep.recovery;
  let ledger = function
    | None -> Buffer.add_string b "-;"
    | Some l ->
        Buffer.add_string b (Printf.sprintf "%d;" (Tally.Ledger.attempted l));
        floats (Tally.Ledger.latencies l)
  in
  let o = rep.outcome in
  ledger o.Workloads.reaction;
  ledger o.Workloads.command;
  ledger o.Workloads.recovery_flips;
  Buffer.add_string b (string_of_int o.Workloads.confirm_attempted);
  floats (List.sort Float.compare o.Workloads.confirm_latencies);
  floats o.Workloads.catch_up;
  List.iter (Buffer.add_string b) o.Workloads.violations;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- metrics ----------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; clock : string }

let m ?(clock = "host") name unit_ value = { name; value; unit_; clock }

let ms x = 1000.0 *. x

let errors = ref []

let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt

(* p50/p99 of a latency class, or an error when it has too few samples. *)
let tail label values =
  match Tally.tail values with
  | Ok t -> Some t
  | Error why ->
      error "%s p99: %s" label why;
      None

let ledger_latencies = function Some l -> Tally.Ledger.latencies l | None -> []

(* The probe operations whose latency is the workload's headline:
   reactions and commands on a deployment, client updates on [order]. *)
let op_latencies (o : Workloads.outcome) =
  match (o.Workloads.reaction, o.Workloads.command) with
  | None, None -> o.Workloads.confirm_latencies
  | r, c -> ledger_latencies r @ ledger_latencies c

(* Attempted and failed over every class of operation. *)
let accounting (o : Workloads.outcome) =
  let ledgers = List.filter_map Fun.id [ o.Workloads.reaction; o.Workloads.command ] in
  let confirmed = List.length o.Workloads.confirm_latencies in
  let attempted =
    List.fold_left (fun acc l -> acc + Tally.Ledger.attempted l) o.Workloads.confirm_attempted ledgers
  in
  let failed =
    List.fold_left (fun acc l -> acc + Tally.Ledger.failed l)
      (o.Workloads.confirm_attempted - confirmed) ledgers
  in
  (attempted, failed)

let median_of f reps = Tally.median (List.map f reps)

let top_heap_mb () = words_mb (Gc.quick_stat ()).Gc.top_heap_words

(* More set-up samples for the set-up median: the build and warm-up
   again, without the measured window, until [max_setups] samples or
   [extra_setup_budget] seconds. *)
let max_setups = 15

let extra_setup_budget = 1.5

let extra_setups ~workload ~seed ~have =
  let start = wall () in
  let rec more acc n =
    if n >= max_setups || wall () -. start >= extra_setup_budget then acc
    else begin
      Gc.compact ();
      let setup_s, _ = timed_setup ~workload ~seed ~timed:false in
      more (setup_s :: acc) (n + 1)
    end
  in
  more [] have

let end_to_end ~unit_ ~setups reps =
  let first = List.hd reps in
  let o = first.outcome in
  let attempted, failed = accounting o in
  [
    m "updates_per_cpu_s" "1/s"
      (median_of (fun r -> float_of_int (Tally.updates unit_ r.window) /. r.ref_cpu_s) reps);
    m "sim_s_per_wall_s" "s/s" (median_of (fun r -> r.sim_s /. r.ref_wall_s) reps);
    m "live_heap_mb" "MB" (median_of (fun r -> r.live_mb) reps);
    m "setup_s" "s" (Tally.median setups);
  ]
  @ (match tail "op" (op_latencies o) with
    | Some t ->
        [
          m ~clock:"virtual" "op_p50_ms" "ms" (ms t.Tally.p50);
          m ~clock:"virtual" "op_p99_ms" "ms" (ms t.Tally.p99);
        ]
    | None -> [])
  @ [
      m ~clock:"virtual" "applied_ratio" "ratio"
        (1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)));
    ]

(* Latencies of each class with their sample counts, printed on every
   run and reported among the traced run's metrics. A class p99 from
   fewer than [Tally.min_tail_samples] samples is withheld (reported as
   0), never computed; so is any figure of a class the workload lacks. *)
let class_metrics (o : Workloads.outcome) =
  let cls name values =
    let sorted = Array.of_list values in
    Array.sort Float.compare sorted;
    let n = Array.length sorted in
    let p50 = if n = 0 then 0.0 else ms (Tally.percentile sorted 50.0) in
    let p99 = if n >= Tally.min_tail_samples then ms (Tally.percentile sorted 99.0) else 0.0 in
    [
      m ~clock:"virtual" (name ^ "_p50_ms") "ms" p50;
      m ~clock:"virtual" (name ^ "_p99_ms") "ms" p99;
      m ~clock:"virtual" (name ^ "_samples") "count" (float_of_int n);
    ]
  in
  cls "reaction" (ledger_latencies o.Workloads.reaction)
  @ cls "command" (ledger_latencies o.Workloads.command)
  @ cls "confirm" o.Workloads.confirm_latencies
  @ [ m ~clock:"virtual" "load.lateness_ms" "ms" 0.0 ]

let scenario_of = function
  | "grid" -> Plc.Power.synthetic ~devices:Workloads.grid_devices ()
  | _ -> Plc.Power.power_plant

let per_layer ~workload ~unit_ reps =
  let untraced = List.filter (fun r -> not r.traced) reps in
  let traced = List.filter (fun r -> r.traced) reps in
  let base = List.hd untraced in
  let w = base.window in
  let c name = float_of_int (Tally.count w name) in
  let rc name = float_of_int (Tally.count base.recovery name) in
  let updates = Tally.updates unit_ w in
  let per x = Tally.per_update x updates in
  let ratio a b = if b <= 0.0 then 0.0 else a /. b in
  let cpu_s = median_of (fun r -> r.cpu_s) untraced in
  let cpu_ns = cpu_s *. 1e9 in
  let cal =
    Calibrate.run ~scenario:(scenario_of workload)
      ~batch:(int_of_float (Float.round (ratio (c "scada.apply_batch_updates") (c "scada.apply_batch"))))
      ~record_bytes:(int_of_float (ratio (c "store.wal_bytes") (c "store.wal_appends")))
  in
  let share ns = ratio ns cpu_ns in
  let crypto_share = share ((c "crypto.sign" *. cal.sign_ns) +. (c "crypto.verify" *. cal.verify_ns)) in
  let applies =
    c "scada.apply_status" +. c "scada.apply_command" +. c "scada.apply_batch"
    +. c "scada.apply_telemetry"
  in
  let scada_share = share (applies *. cal.apply_ns) in
  let power_share = share (c "power.solves" *. cal.solve_ns) in
  let store_share = share (c "store.wal_appends" *. cal.wal_append_ns) in
  let sim_share = share (c "sim.events" *. cal.event_ns) in
  (* Prime's handler is timed only where the benchmark owns the
     transport ([order]); its self time excludes the crypto it calls. *)
  let handle_calls = median_of (fun r -> float_of_int r.handle_calls) traced in
  let handle_ns_total = median_of (fun r -> r.handle_ns) traced in
  let traced_cpu_s = median_of (fun r -> r.cpu_s) traced in
  let prime_share =
    if handle_calls = 0.0 then 0.0
    else Float.max 0.0 (ratio handle_ns_total (traced_cpu_s *. 1e9) -. crypto_share)
  in
  let shares =
    [
      m "sim.cpu_share" "ratio" sim_share;
      m "crypto.cpu_share" "ratio" crypto_share;
      m "prime.cpu_share" "ratio" prime_share;
      m "scada.cpu_share" "ratio" scada_share;
      m "store.cpu_share" "ratio" store_share;
      m "power.cpu_share" "ratio" power_share;
    ]
  in
  let obs name = median_of (fun r -> Option.value ~default:0.0 (List.assoc_opt name r.obs)) traced in
  let o = base.outcome in
  let virt = m ~clock:"virtual" in
  [
    virt "sim.events_per_update" "events/update" (per (c "sim.events"));
    m "sim.ns_per_event" "ns" (ratio cpu_ns (c "sim.events"));
    virt "netbase.frames_per_update" "frames/update" (per (c "netbase.switch_tx"));
    virt "netbase.backlog_drops" "count" (c "netbase.backlog_drops");
    virt "netbase.pcap_records" "count" (c "netbase.pcap_records");
    virt "spines.link_tx_per_update" "frames/update" (per (c "spines.link_tx"));
    virt "spines.route_dijkstra" "count" (c "spines.route_dijkstra");
    virt "spines.egress_drops" "count" (c "spines.egress_drops");
    virt "stage.overlay_ms" "ms" (obs "stage.overlay_ms");
    virt "crypto.signs_per_update" "signs/update" (per (c "crypto.sign"));
    virt "crypto.verifies_per_update" "verifies/update" (per (c "crypto.verify"));
    virt "crypto.cache_hit_ratio" "ratio"
      (ratio (c "crypto.cache_hit") (c "crypto.cache_hit" +. c "crypto.verify"));
    virt "crypto.batch_size" "msgs/flush" (ratio (c "crypto.batch_msgs") (c "crypto.batch_flush"));
    m "crypto.sign_ns" "ns" cal.sign_ns;
    m "crypto.verify_ns" "ns" cal.verify_ns;
    virt "prime.msgs_per_update" "msgs/update" (per (c "prime.msg_rx"));
    m "prime.handle_ns" "ns" (ratio handle_ns_total handle_calls);
    virt "prime.view_changes" "count" (c "prime.max_view");
    virt "prime.retransmits" "count" (c "prime.retransmits");
    virt "stage.preorder_ms" "ms" (obs "stage.preorder_ms");
    virt "stage.order_ms" "ms" (obs "stage.order_ms");
    virt "stage.poll_ms" "ms" (obs "stage.poll_ms");
    virt "stage.hmi_ms" "ms" (obs "stage.hmi_ms");
    virt "scada.batch_updates_per_batch" "updates/batch"
      (ratio (c "scada.apply_batch_updates") (c "scada.apply_batch"));
    m "scada.apply_ns" "ns" cal.apply_ns;
    virt "scada.transfer_bytes" "B" (rc "scada.transfer_bytes");
    virt "store.wal_appends_per_update" "appends/update" (per (c "store.wal_appends"));
    virt "store.fsyncs_per_update" "fsyncs/update" (per (c "store.fsyncs"));
    virt "store.bytes_per_update" "B/update" (per (c "store.wal_bytes"));
    virt "store.checkpoints" "count" (c "store.checkpoints");
    virt "store.replayed_records" "count" (rc "store.replayed_records");
    virt "store.peer_installs" "count" (rc "store.peer_installs");
    virt "store.catch_up_ms" "ms"
      (match o.Workloads.catch_up with [] -> 0.0 | l -> ms (Tally.median l));
    virt "recovery.view_changes" "count" (rc "prime.max_view");
    virt "recovery.flips_unshown" "count"
      (match o.Workloads.recovery_flips with
      | Some l -> float_of_int (Tally.Ledger.failed l)
      | None -> 0.0);
    m "store.wal_append_ns" "ns" cal.wal_append_ns;
    virt "power.solves_per_update" "solves/update" (per (c "power.solves"));
    m "power.solve_ns" "ns" cal.solve_ns;
    m "sim.event_ns" "ns" cal.event_ns;
    m "obs.trace_overhead" "ratio"
      (ratio (median_of (fun r -> r.ref_cpu_s) traced) (median_of (fun r -> r.ref_cpu_s) untraced));
    virt "obs.spans_completed" "count" (obs "obs.spans_completed");
    virt "obs.orphan_marks" "count" (obs "obs.orphan_marks");
    virt "obs.flight_events" "count" (obs "obs.flight_events");
    virt "gc.minor_words_per_update" "words/update" (per base.minor_words);
    virt "gc.promoted_words_per_update" "words/update" (per base.promoted_words);
    virt "gc.major_collections" "count" (float_of_int base.major_collections);
    m "gc.top_heap_mb" "MB" (top_heap_mb ());
  ]
  @ shares
  @ [
      m "unattributed_share" "ratio"
        (1.0 -. List.fold_left (fun acc s -> acc +. s.value) 0.0 shares);
    ]
  @ class_metrics o

(* --- output ------------------------------------------------------------------- *)

(* JSON number with every digit; non-finite values (never expected) as 0. *)
let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun mt ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (num mt.value) mt.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let print_metric mt =
  Printf.printf "  %-32s %18.6f %-14s (%s)\n" mt.name mt.value mt.unit_ mt.clock

let min_reps = 2

let usage () =
  prerr_endline
    "usage: spire_bench --workload plant|order|grid --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := int_of_string t; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload Workloads.names)) || !seed < 0 || !trace < 0 || !trace > 1 then
    usage ();
  let traced_mode = !trace = 1 in
  let start = wall () in
  let fp0 = ref None in
  (* Repeat until the time is spent, and at least [min_reps] times: the
     determinism check compares them, host figures take their median,
     and in traced mode both kinds run. *)
  let rec loop i acc =
    let traced = traced_mode && i mod 2 = 1 in
    let rep = run_rep ~workload:!workload ~seed:!seed ~traced ~recovery:traced_mode in
    let fp = fingerprint rep in
    (match !fp0 with
    | None -> fp0 := Some fp
    | Some f when String.equal f fp -> ()
    | Some f ->
        error "repetition %d (%s) does not reproduce repetition 0: fingerprint %s vs %s" i
          (if traced then "traced" else "untraced") fp f);
    Printf.printf
      "  rep %d%s: setup %.3f s, window %.3f s CPU (%.3f s at reference speed), %.3f s wall, \
       fingerprint %s\n%!"
      i (if traced then " (traced)" else "") rep.setup_s rep.cpu_s rep.ref_cpu_s rep.wall_s fp;
    let acc = rep :: acc in
    if wall () -. start < !seconds || i + 1 < min_reps then loop (i + 1) acc else List.rev acc
  in
  Printf.printf "spire_bench: workload %s, seed %d, %.0f s, trace %d\n%!" !workload !seed
    !seconds !trace;
  let reps = loop 0 [] in
  let first = List.hd reps in
  let o = first.outcome in
  List.iter (fun v -> error "invariant: %s" v) o.Workloads.violations;
  let unit_ = Tally.unit_of_workload !workload in
  let classes = class_metrics o in
  let attempted, failed = accounting o in
  Printf.printf "  repetitions: %d; updates in window: %d; generator lateness: 0 ms (discrete-event)\n"
    (List.length reps) (Tally.updates unit_ first.window);
  Printf.printf "  operations: %d attempted, %d failed\n" attempted failed;
  (match o.Workloads.recovery_flips with
  | Some l when traced_mode ->
      Printf.printf "  recovery pass: catch-up %s ms; %d of %d flips never shown\n"
        (String.concat ", " (List.map (fun x -> Printf.sprintf "%.1f" (ms x)) o.Workloads.catch_up))
        (Tally.Ledger.failed l) (Tally.Ledger.attempted l)
  | _ -> ());
  let metrics =
    if traced_mode then begin
      ignore (tail "op" (op_latencies o));
      let layers = per_layer ~workload:!workload ~unit_ reps in
      List.iter print_metric layers;
      layers
    end
    else begin
      let setups = List.map (fun r -> r.setup_s) reps in
      let setups =
        setups @ extra_setups ~workload:!workload ~seed:!seed ~have:(List.length setups)
      in
      let e2e = end_to_end ~unit_ ~setups reps in
      List.iter print_metric (e2e @ classes);
      Printf.printf "  op samples: %d; set-up samples: %d\n"
        (List.length (op_latencies o)) (List.length setups);
      e2e
    end
  in
  match List.rev !errors with
  | [] ->
      print_result ~correct:true ~attempted ~failed metrics;
      exit 0
  | errs ->
      List.iter (fun e -> Printf.printf "  ERROR: %s\n" e) errs;
      print_result ~correct:false ~attempted ~failed [];
      exit 1
