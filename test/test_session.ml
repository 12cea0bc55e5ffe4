(* Tests for the Spines remote session layer: attach/deliver, failover
   across daemons, authentication, and deduplication. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ip = Netbase.Addr.Ip.v

type rig = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  nodes : Spines.Node.t array;
  client_host : Netbase.Host.t;
}

(* Three overlay daemons on one LAN plus a client machine. *)
let make_rig ?(key = "group-key") () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let switch = Netbase.Switch.create ~engine ~trace "lan" in
  let topology = Spines.Topology.full_mesh [ 0; 1; 2 ] in
  let nodes =
    Array.init 3 (fun i ->
        let host = Netbase.Host.create ~engine ~trace (Printf.sprintf "daemon%d" i) in
        let nic = Netbase.Host.add_nic host ~ip:(ip 10 0 0 (i + 1)) in
        let (_ : int) = Netbase.Host.plug_into_switch host nic switch in
        Spines.Node.create ~engine ~trace ~host ~id:i
          (Spines.Node.default_config ~group_key:key topology))
  in
  Array.iteri
    (fun i node ->
      Array.iteri (fun j _ -> if i <> j then Spines.Node.set_peer_address node j (ip 10 0 0 (j + 1))) nodes;
      Spines.Node.start node)
    nodes;
  let client_host = Netbase.Host.create ~engine ~trace "client" in
  let nic = Netbase.Host.add_nic client_host ~ip:(ip 10 0 0 99) in
  let (_ : int) = Netbase.Host.plug_into_switch client_host nic switch in
  { engine; trace; nodes; client_host }

let make_session ?(key = "group-key") rig name =
  Spines.Node.Session.create ~engine:rig.engine ~trace:rig.trace ~host:rig.client_host ~key
    ~daemons:[ (0, ip 10 0 0 1); (1, ip 10 0 0 2); (2, ip 10 0 0 3) ]
    ~daemon_session_port:8101 ~name ()

let test_session_delivery_roundtrip () =
  let rig = make_rig () in
  let session = make_session rig "hmi-test" in
  let got = ref [] in
  Spines.Node.Session.set_handler session (fun ~size:_ payload -> got := payload :: !got);
  Spines.Node.Session.start session;
  Sim.Engine.run ~until:0.5 rig.engine;
  (* Client -> overlay: send to a local client on daemon 2. *)
  let node2_got = ref 0 in
  Spines.Node.register_client rig.nodes.(2) ~client:5 (fun ~src:_ ~size:_ _ -> incr node2_got);
  Spines.Node.Session.send session ~size:50
    (Spines.Node.To_client { node = 2; client = 5 })
    (Netbase.Packet.Raw "up");
  Sim.Engine.run ~until:1.0 rig.engine;
  check_int "uplink delivered" 1 !node2_got;
  (* Overlay -> client: a daemon-side client sends to the session name. *)
  Spines.Node.register_client rig.nodes.(2) ~client:6 (fun ~src:_ ~size:_ _ -> ());
  Spines.Node.send rig.nodes.(2) ~client:6 ~size:60 (Spines.Node.To_session "hmi-test")
    (Netbase.Packet.Raw "down");
  Sim.Engine.run ~until:2.0 rig.engine;
  check_int "downlink delivered" 1 (List.length !got)

let test_session_failover () =
  let rig = make_rig () in
  let session = make_session rig "proxy-test" in
  let got = ref 0 in
  Spines.Node.Session.set_handler session (fun ~size:_ _ -> incr got);
  Spines.Node.Session.start session;
  Sim.Engine.run ~until:0.5 rig.engine;
  check_int "attached to first daemon" 0 (Spines.Node.Session.current_daemon session);
  (* The home daemon dies; the session must re-home. *)
  Spines.Node.stop rig.nodes.(0);
  Sim.Engine.run ~until:6.0 rig.engine;
  check "failed over" true (Spines.Node.Session.current_daemon session <> 0);
  (* Delivery works through the new daemon. *)
  Spines.Node.register_client rig.nodes.(2) ~client:6 (fun ~src:_ ~size:_ _ -> ());
  Spines.Node.send rig.nodes.(2) ~client:6 ~size:60 (Spines.Node.To_session "proxy-test")
    (Netbase.Packet.Raw "after-failover");
  Sim.Engine.run ~until:8.0 rig.engine;
  check_int "delivered after failover" 1 !got;
  check "failover counted" true
    (Sim.Stats.Counter.get (Spines.Node.Session.counters session) "failover" >= 1)

let test_session_wrong_key_rejected () =
  let rig = make_rig () in
  let session = make_session ~key:"not-the-group-key" rig "mallory-session" in
  Spines.Node.Session.set_handler session (fun ~size:_ _ -> ());
  Spines.Node.Session.start session;
  (* Try to inject into the overlay. *)
  let node2_got = ref 0 in
  Spines.Node.register_client rig.nodes.(2) ~client:5 (fun ~src:_ ~size:_ _ -> incr node2_got);
  Spines.Node.Session.send session ~size:50
    (Spines.Node.To_client { node = 2; client = 5 })
    (Netbase.Packet.Raw "forged");
  Sim.Engine.run ~until:2.0 rig.engine;
  check_int "nothing injected" 0 !node2_got;
  check "daemon rejected the session traffic" true
    (Sim.Stats.Counter.get (Spines.Node.counters rig.nodes.(0)) "session.auth_reject" > 0)

let test_session_send_requires_attachment () =
  let rig = make_rig () in
  (* Sending without a prior attach is ignored by the daemon. *)
  let session = make_session rig "eager" in
  let node2_got = ref 0 in
  Spines.Node.register_client rig.nodes.(2) ~client:5 (fun ~src:_ ~size:_ _ -> incr node2_got);
  (* Deliberately not started: no attach has happened. *)
  Spines.Node.Session.send session ~size:50
    (Spines.Node.To_client { node = 2; client = 5 })
    (Netbase.Packet.Raw "early");
  Sim.Engine.run ~until:1.0 rig.engine;
  check_int "unattached send dropped" 0 !node2_got;
  check "counted" true
    (Sim.Stats.Counter.get (Spines.Node.counters rig.nodes.(0)) "session.not_attached" > 0)

let test_session_duplicate_suppression () =
  let rig = make_rig () in
  let session = make_session rig "dedup-client" in
  let got = ref 0 in
  Spines.Node.Session.set_handler session (fun ~size:_ _ -> incr got);
  Spines.Node.Session.start session;
  Sim.Engine.run ~until:0.5 rig.engine;
  Spines.Node.register_client rig.nodes.(1) ~client:6 (fun ~src:_ ~size:_ _ -> ());
  Spines.Node.send rig.nodes.(1) ~client:6 ~size:60 (Spines.Node.To_session "dedup-client")
    (Netbase.Packet.Raw "one");
  Sim.Engine.run ~until:1.5 rig.engine;
  check_int "delivered once despite flooding over three daemons" 1 !got

let suite =
  [
    ("session delivery roundtrip", `Quick, test_session_delivery_roundtrip);
    ("session failover", `Quick, test_session_failover);
    ("session wrong key rejected", `Quick, test_session_wrong_key_rejected);
    ("session send requires attachment", `Quick, test_session_send_requires_attachment);
    ("session duplicate suppression", `Quick, test_session_duplicate_suppression);
  ]

let () = Alcotest.run "session" [ ("session", suite) ]
