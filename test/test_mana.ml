(* Tests for the MANA IDS: feature extraction, clustering, and detection
   of the red team's attack classes on synthetic captures. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ip = Netbase.Addr.Ip.v

let mac_a = Netbase.Addr.Mac.fresh ()
let mac_b = Netbase.Addr.Mac.fresh ()

let udp_record ~time ~src ~dst ~dst_port ~size =
  Netbase.Pcap.of_frame ~time
    (Netbase.Packet.udp_frame ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:src ~dst_ip:dst
       ~src_port:5000 ~dst_port ~size (Netbase.Packet.Raw "x"))

let arp_reply_record ~time ~sender ~target =
  Netbase.Pcap.of_frame ~time
    {
      Netbase.Packet.src_mac = mac_a;
      dst_mac = mac_b;
      l3 =
        Netbase.Packet.Arp_reply
          { sender_ip = sender; sender_mac = mac_a; target_ip = target; target_mac = mac_b };
    }

(* Regular SCADA chatter: two constant flows, constant sizes (the paper:
   "short constant system updates ... ideal for machine learning"). *)
let baseline_window ~t0 =
  List.concat
    (List.init 10 (fun i ->
         let time = t0 +. (0.1 *. float_of_int i) in
         [
           udp_record ~time ~src:(ip 10 0 0 1) ~dst:(ip 10 0 0 2) ~dst_port:502 ~size:80;
           udp_record ~time ~src:(ip 10 0 0 2) ~dst:(ip 10 0 0 3) ~dst_port:5500 ~size:120;
         ]))

let fill_baseline pcap ~windows =
  (* Pcap.capture expects frames; rebuild from records is awkward, so we
     use frames directly. *)
  for w = 0 to windows - 1 do
    let t0 = float_of_int w in
    List.iteri
      (fun i _ ->
        let time = t0 +. (0.1 *. float_of_int i) in
        Netbase.Pcap.capture pcap ~time
          (Netbase.Packet.udp_frame ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:(ip 10 0 0 1)
             ~dst_ip:(ip 10 0 0 2) ~src_port:5000 ~dst_port:502 ~size:80
             (Netbase.Packet.Raw "poll"));
        Netbase.Pcap.capture pcap ~time
          (Netbase.Packet.udp_frame ~src_mac:mac_b ~dst_mac:mac_a ~src_ip:(ip 10 0 0 2)
             ~dst_ip:(ip 10 0 0 3) ~src_port:5001 ~dst_port:5500 ~size:120
             (Netbase.Packet.Raw "update")))
      (List.init 10 (fun i -> i))
  done

(* --- features ------------------------------------------------------------ *)

let test_features_empty_window () =
  let f = Mana.Features.create () in
  let v = Mana.Features.extract f [] in
  Array.iter (fun x -> check "all zero" true (x = 0.0)) v

let test_features_baseline_shape () =
  let f = Mana.Features.create () in
  let v = Mana.Features.extract f (baseline_window ~t0:0.0) in
  check "20 packets" true (v.(0) = 20.0);
  check "two flows" true (v.(3) = 2.0);
  check "no arp" true (v.(5) = 0.0 && v.(6) = 0.0)

let test_features_detect_scan_fanout () =
  let f = Mana.Features.create () in
  (* Learn baseline flows first, then freeze. *)
  ignore (Mana.Features.extract f (baseline_window ~t0:0.0));
  Mana.Features.freeze f;
  let scan =
    List.init 50 (fun i ->
        udp_record ~time:(float_of_int i *. 0.01) ~src:(ip 10 0 0 99) ~dst:(ip 10 0 0 (i mod 10))
          ~dst_port:(1000 + i) ~size:40)
  in
  let v = Mana.Features.extract f scan in
  check "high fanout" true (v.(8) >= 40.0);
  check "many new flows" true (v.(4) >= 40.0)

let test_features_detect_unsolicited_arp () =
  let f = Mana.Features.create () in
  Mana.Features.freeze f;
  let storm =
    List.init 20 (fun i ->
        arp_reply_record ~time:(float_of_int i *. 0.05) ~sender:(ip 10 0 0 2)
          ~target:(ip 10 0 0 1))
  in
  let v = Mana.Features.extract f storm in
  check "unsolicited ratio 1.0" true (v.(7) = 1.0);
  check "arp replies counted" true (v.(6) = 20.0)

(* --- kmeans ----------------------------------------------------------------- *)

let test_kmeans_separates_blobs () =
  let rng = Sim.Rng.create 5L in
  let blob center = List.init 20 (fun i -> [| center +. (0.01 *. float_of_int i); center |]) in
  let data = blob 0.0 @ blob 10.0 in
  let model = Mana.Kmeans.train ~rng ~k:2 ~iterations:20 data in
  check "training points near centroids" true
    (List.for_all (fun p -> Mana.Kmeans.distance model p < 1.0) data);
  check "outlier far" true (Mana.Kmeans.distance model [| 50.0; 50.0 |] > 20.0)

let test_kmeans_rejects_empty () =
  let rng = Sim.Rng.create 6L in
  Alcotest.check_raises "no data" (Invalid_argument "Kmeans.train: no data") (fun () ->
      ignore (Mana.Kmeans.train ~rng ~k:2 ~iterations:5 []))

(* --- detector ------------------------------------------------------------------ *)

let make_trained_detector () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let pcap = Netbase.Pcap.create () in
  let det =
    Mana.Detector.create ~window:1.0 ~threshold:6.0 ~consecutive_required:2 ~engine ~trace
      ~baseline:(0.0, 30.0) pcap
  in
  fill_baseline pcap ~windows:30;
  Mana.Detector.train det ~rng:(Sim.Rng.create 17L);
  (engine, det, pcap)

let test_detector_quiet_on_baseline () =
  let _, det, pcap = make_trained_detector () in
  (* 20 more windows of the same traffic: no alerts. *)
  for w = 30 to 49 do
    let t0 = float_of_int w in
    List.iter (fun i ->
        Netbase.Pcap.capture pcap ~time:(t0 +. (0.1 *. float_of_int i))
          (Netbase.Packet.udp_frame ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:(ip 10 0 0 1)
             ~dst_ip:(ip 10 0 0 2) ~src_port:5000 ~dst_port:502 ~size:80
             (Netbase.Packet.Raw "poll"));
        Netbase.Pcap.capture pcap ~time:(t0 +. (0.1 *. float_of_int i))
          (Netbase.Packet.udp_frame ~src_mac:mac_b ~dst_mac:mac_a ~src_ip:(ip 10 0 0 2)
             ~dst_ip:(ip 10 0 0 3) ~src_port:5001 ~dst_port:5500 ~size:120
             (Netbase.Packet.Raw "update")))
      (List.init 10 (fun i -> i));
    Mana.Detector.evaluate det
  done;
  check_int "no false alerts" 0 (List.length (Mana.Detector.alerts det));
  check_int "twenty windows scored" 20 (Mana.Detector.windows_scored det)

let test_detector_flags_port_scan () =
  let _, det, pcap = make_trained_detector () in
  for w = 30 to 33 do
    let t0 = float_of_int w in
    (* Baseline chatter continues... *)
    Netbase.Pcap.capture pcap ~time:t0
      (Netbase.Packet.udp_frame ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:(ip 10 0 0 1)
         ~dst_ip:(ip 10 0 0 2) ~src_port:5000 ~dst_port:502 ~size:80 (Netbase.Packet.Raw "p"));
    (* ...plus a scanner sweeping ports. *)
    for i = 0 to 60 do
      Netbase.Pcap.capture pcap ~time:(t0 +. (0.01 *. float_of_int i))
        (Netbase.Packet.udp_frame ~src_mac:mac_b ~dst_mac:mac_a ~src_ip:(ip 10 0 0 99)
           ~dst_ip:(ip 10 0 0 (1 + (i mod 5))) ~src_port:40001 ~dst_port:(1000 + i) ~size:40
           Netbase.Packet.Scan_probe)
    done;
    Mana.Detector.evaluate det
  done;
  check "alerted" true (List.length (Mana.Detector.alerts det) > 0);
  check "categorised as scan/probe or new flows" true
    (List.mem "scan-or-probe" (Mana.Detector.alert_categories det))

let test_detector_flags_flood () =
  let _, det, pcap = make_trained_detector () in
  for w = 30 to 33 do
    let t0 = float_of_int w in
    for i = 0 to 2000 do
      Netbase.Pcap.capture pcap ~time:(t0 +. (0.0004 *. float_of_int i))
        (Netbase.Packet.udp_frame ~src_mac:mac_b ~dst_mac:mac_a ~src_ip:(ip 10 0 0 66)
           ~dst_ip:(ip 10 0 0 2) ~src_port:44444 ~dst_port:8120 ~size:1400
           (Netbase.Packet.Raw "flood"))
    done;
    Mana.Detector.evaluate det
  done;
  check "alerted" true (List.length (Mana.Detector.alerts det) > 0)

let test_detector_flags_arp_poisoning () =
  let _, det, pcap = make_trained_detector () in
  for w = 30 to 33 do
    let t0 = float_of_int w in
    (* Gratuitous ARP replies every 100 ms, as the poisoner maintains its
       hold on the victims' caches. *)
    for i = 0 to 9 do
      Netbase.Pcap.capture pcap ~time:(t0 +. (0.1 *. float_of_int i))
        {
          Netbase.Packet.src_mac = mac_b;
          dst_mac = mac_a;
          l3 =
            Netbase.Packet.Arp_reply
              { sender_ip = ip 10 0 0 2; sender_mac = mac_b; target_ip = ip 10 0 0 1;
                target_mac = mac_a };
        }
    done;
    Mana.Detector.evaluate det
  done;
  check "alerted" true (List.length (Mana.Detector.alerts det) > 0);
  check "categorised as arp anomaly" true
    (List.mem "arp-anomaly" (Mana.Detector.alert_categories det))

let test_detector_requires_training () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let pcap = Netbase.Pcap.create () in
  let det = Mana.Detector.create ~engine ~trace ~baseline:(0.0, 30.0) pcap in
  check "untrained" false (Mana.Detector.is_trained det);
  Alcotest.check_raises "evaluate before train"
    (Invalid_argument "Detector.evaluate: not trained") (fun () -> Mana.Detector.evaluate det)

let test_detector_trains_on_baseline_interval () =
  (* Silent windows inside the baseline still count as training windows,
     and a frame stamped at the interval's end is not learned. *)
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let pcap = Netbase.Pcap.create () in
  let det = Mana.Detector.create ~window:1.0 ~engine ~trace ~baseline:(0.0, 30.0) pcap in
  fill_baseline pcap ~windows:10;
  Netbase.Pcap.capture pcap ~time:30.0
    (Netbase.Packet.udp_frame ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:(ip 10 0 0 7)
       ~dst_ip:(ip 10 0 0 8) ~src_port:5000 ~dst_port:502 ~size:80 (Netbase.Packet.Raw "late"));
  Mana.Detector.train det ~rng:(Sim.Rng.create 17L);
  Alcotest.(check (list string))
    "thirty windows, two flows"
    [ "trained on 30 windows (2 baseline flows)" ]
    (List.map (fun e -> e.Sim.Trace.message) (Sim.Trace.by_category trace "mana"))

let test_detector_memory_flat () =
  (* Memory depends on the window length, not on the run length: a
     trained detector streaming steady chatter reaches the same number of
     heap words after a 30 s detection run and after one twice as long. *)
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let pcap = Netbase.Pcap.create () in
  let det = Mana.Detector.create ~window:1.0 ~engine ~trace ~baseline:(0.0, 30.0) pcap in
  let poll =
    Netbase.Packet.udp_frame ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:(ip 10 0 0 1)
      ~dst_ip:(ip 10 0 0 2) ~src_port:5000 ~dst_port:502 ~size:80 (Netbase.Packet.Raw "poll")
  and update =
    Netbase.Packet.udp_frame ~src_mac:mac_b ~dst_mac:mac_a ~src_ip:(ip 10 0 0 2)
      ~dst_ip:(ip 10 0 0 3) ~src_port:5001 ~dst_port:5500 ~size:120
      (Netbase.Packet.Raw "update")
  in
  let (_ : Sim.Engine.timer) =
    Sim.Engine.every engine ~period:0.1 (fun () ->
        let time = Sim.Engine.now engine in
        Netbase.Pcap.capture pcap ~time poll;
        Netbase.Pcap.capture pcap ~time update)
  in
  Sim.Engine.run ~until:30.0 engine;
  Mana.Detector.train det ~rng:(Sim.Rng.create 17L);
  let (_ : Sim.Engine.timer) = Mana.Detector.start det in
  Sim.Engine.run ~until:60.0 engine;
  let words () = Obj.reachable_words (Obj.repr (pcap, det)) in
  let words_1x = words () in
  Sim.Engine.run ~until:90.0 engine;
  check_int "sixty windows scored" 60 (Mana.Detector.windows_scored det);
  check_int "no false alerts" 0 (List.length (Mana.Detector.alerts det));
  check_int "reachable words flat" words_1x (words ())

(* --- E7 replay ---------------------------------------------------------------- *)

let e7_scenario =
  {
    Plc.Power.scenario_name = "bench-mini";
    plcs =
      [ { Plc.Power.plc_name = "MAIN"; breaker_names = [ "B10-1"; "B57"; "B56" ]; physical = true } ];
    feeds = [ { Plc.Power.load_name = "Building-A"; path = [ "B10-1"; "B57" ] } ];
  }

(* E7's schedule on the red-team deployment's mirror port: 120 s of
   baseline, then a port scan, ARP poisoning and a flood, each followed by
   10 s of quiet. The digest covers every alert's time and score (exact,
   in %h), dominant feature and category, plus the number of windows
   scored. It was captured while MANA still sliced a stored capture into
   windows; the streamed detector must reproduce it byte for byte. *)
let e7_alert_digest () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let config = Prime.Config.red_team () in
  let deployment = Spire.Deployment.create ~engine ~trace ~config e7_scenario in
  let det =
    Mana.Detector.create ~window:1.0 ~threshold:6.0 ~consecutive_required:2 ~engine ~trace
      ~baseline:(5.0, 125.0)
      (Spire.Deployment.external_pcap deployment)
  in
  let driver = Spire.Scenario_driver.create deployment in
  Spire.Scenario_driver.start driver ~period:2.0;
  Sim.Engine.run ~until:125.0 engine;
  Mana.Detector.train det ~rng:(Sim.Engine.split_rng engine);
  let (_ : Sim.Engine.timer) = Mana.Detector.start det in
  let attacker = Attack.Attacker.create ~engine ~trace in
  let pos =
    Attack.Attacker.attach attacker ~name:"redteam" ~ip:(ip 10 0 2 66)
      (Spire.Deployment.external_switch deployment)
  in
  let condition ~duration launch =
    launch ();
    Sim.Engine.run ~until:(Sim.Engine.now engine +. duration) engine;
    Sim.Engine.run ~until:(Sim.Engine.now engine +. 10.0) engine
  in
  condition ~duration:60.0 (fun () -> ());
  condition ~duration:15.0 (fun () ->
      let (_ : Netbase.Addr.Ip.t -> int -> string) =
        Attack.Actions.port_scan attacker pos
          ~targets:
            (List.init config.Prime.Config.n (fun i -> Spire.Addressing.replica_external i))
          ~ports:(List.init 40 (fun i -> 8000 + i))
      in
      ());
  condition ~duration:15.0 (fun () ->
      let r0 = (Spire.Deployment.replicas deployment).(0) in
      let timer =
        Attack.Actions.arp_poison attacker pos
          ~victim_ip:(Spire.Addressing.replica_external 0)
          ~victim_mac:(Netbase.Host.nic_mac r0.Spire.Deployment.r_external_nic)
          ~impersonate:(Spire.Addressing.proxy_external 0)
      in
      ignore
        (Sim.Engine.schedule engine ~delay:15.0 (fun () -> Sim.Engine.cancel_timer engine timer)));
  condition ~duration:15.0 (fun () ->
      let (_ : int ref) =
        Attack.Actions.dos_flood attacker pos
          ~target_ip:(Spire.Addressing.replica_external 0)
          ~target_port:Spire.Addressing.spines_external_port ~rate:10_000.0 ~duration:10.0
      in
      ());
  Spire.Scenario_driver.stop driver;
  let lines =
    List.map
      (fun a ->
        Printf.sprintf "%h %h %s %s\n" a.Mana.Detector.alert_time a.Mana.Detector.score
          a.Mana.Detector.dominant_feature a.Mana.Detector.category)
      (Mana.Detector.alerts det)
  in
  ( List.length (Mana.Detector.alerts det),
    Crypto.Sha256.hex_of_string
      (String.concat "" lines ^ Printf.sprintf "windows %d\n" (Mana.Detector.windows_scored det))
  )

let test_e7_alerts_golden () =
  let n_alerts, digest = e7_alert_digest () in
  check_int "E7 alert count" 26 n_alerts;
  Alcotest.(check string) "E7 alert digest"
    "cbb45d5849e03e32c359cb1041bfdd92bf7bf1c19299e7308b031544fa50fcb7" digest

(* --- board -------------------------------------------------------------------- *)

let test_board_conditions () =
  let engine, det, pcap = make_trained_detector () in
  let board = Mana.Board.create ~elevated_window:60.0 ~engine () in
  Mana.Board.add_network board ~name:"operations" det;
  check "normal at rest" true (Mana.Board.overall board = Mana.Board.Normal);
  (* Inject a flood to raise alerts. *)
  for w = 30 to 35 do
    let t0 = float_of_int w in
    for i = 0 to 1500 do
      Netbase.Pcap.capture pcap ~time:(t0 +. (0.0005 *. float_of_int i))
        (Netbase.Packet.udp_frame ~src_mac:mac_b ~dst_mac:mac_a ~src_ip:(ip 10 0 0 66)
           ~dst_ip:(ip 10 0 0 2) ~src_port:44444 ~dst_port:8120 ~size:1400
           (Netbase.Packet.Raw "flood"))
    done;
    Mana.Detector.evaluate det
  done;
  check "critical under sustained attack" true (Mana.Board.overall board = Mana.Board.Critical);
  let rendering = Mana.Board.render board in
  check "board names the network" true
    (String.length rendering > 0
    &&
    let contains hay needle =
      let nl = String.length needle and hl = String.length hay in
      let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
      scan 0
    in
    contains rendering "operations" && contains rendering "CRITICAL")

let test_board_multiple_networks () =
  let engine, det_ops, _ = make_trained_detector () in
  let board = Mana.Board.create ~engine () in
  Mana.Board.add_network board ~name:"ops" det_ops;
  Mana.Board.add_network board ~name:"enterprise" det_ops;
  (* Rendering covers both rows. *)
  let r = Mana.Board.render board in
  check "two rows" true (List.length (String.split_on_char '\n' r) >= 3)

let suite =
  [
    ("board conditions", `Quick, test_board_conditions);
    ("board multiple networks", `Quick, test_board_multiple_networks);
    ("features empty window", `Quick, test_features_empty_window);
    ("features baseline shape", `Quick, test_features_baseline_shape);
    ("features detect scan fanout", `Quick, test_features_detect_scan_fanout);
    ("features detect unsolicited arp", `Quick, test_features_detect_unsolicited_arp);
    ("kmeans separates blobs", `Quick, test_kmeans_separates_blobs);
    ("kmeans rejects empty", `Quick, test_kmeans_rejects_empty);
    ("detector quiet on baseline", `Quick, test_detector_quiet_on_baseline);
    ("detector flags port scan", `Quick, test_detector_flags_port_scan);
    ("detector flags flood", `Quick, test_detector_flags_flood);
    ("detector flags arp poisoning", `Quick, test_detector_flags_arp_poisoning);
    ("detector requires training", `Quick, test_detector_requires_training);
    ("detector trains on baseline interval", `Quick, test_detector_trains_on_baseline_interval);
    ("detector memory flat", `Quick, test_detector_memory_flat);
    ("e7 alerts match golden digest", `Slow, test_e7_alerts_golden);
  ]

let () = Alcotest.run "mana" [ ("mana", suite) ]
