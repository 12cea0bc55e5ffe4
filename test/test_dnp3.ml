(* Tests for the DNP3 subset and the RTU outstation: framing roundtrips,
   checksum rejection, event buffering/overflow, operate commands, and
   the end-to-end RTU-behind-proxy deployment. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- codec -------------------------------------------------------------- *)

let roundtrip_request r = Plc.Dnp3.decode_request (Plc.Dnp3.encode_request r)

let roundtrip_response r = Plc.Dnp3.decode_response (Plc.Dnp3.encode_response r)

let test_request_roundtrips () =
  let cases =
    [
      Plc.Dnp3.Read_class { classes = [ 0 ] };
      Plc.Dnp3.Read_class { classes = [ 1; 2; 3 ] };
      Plc.Dnp3.Operate { index = 7; close = true };
      Plc.Dnp3.Operate { index = 1000; close = false };
      Plc.Dnp3.Clear_events { through = 0 };
      Plc.Dnp3.Clear_events { through = 70_000 };
    ]
  in
  List.iteri
    (fun i body ->
      let framed = { Plc.Dnp3.sequence = i land 0xFF; body } in
      check (Printf.sprintf "case %d" i) true (roundtrip_request framed = framed))
    cases

let test_response_roundtrips () =
  let cases =
    [
      Plc.Dnp3.Static_data [ true; false; true; true; false ];
      Plc.Dnp3.Static_data [];
      Plc.Dnp3.Events
        {
          events =
            [
              { Plc.Dnp3.ev_number = 1; ev_index = 3; ev_closed = false; ev_time = 12.5 };
              { Plc.Dnp3.ev_number = 70_000; ev_index = 0; ev_closed = true; ev_time = 13.75 };
            ];
          overflow = false;
        };
      Plc.Dnp3.Events
        {
          events = [ { Plc.Dnp3.ev_number = 9; ev_index = 1; ev_closed = true; ev_time = 0.5 } ];
          overflow = true;
        };
      Plc.Dnp3.Events { events = []; overflow = true };
      Plc.Dnp3.Operate_ack { op_index = 2; op_close = true; success = true };
      Plc.Dnp3.Operate_ack { op_index = 9; op_close = false; success = false };
      Plc.Dnp3.Events_cleared;
    ]
  in
  List.iteri
    (fun i body ->
      let framed = { Plc.Dnp3.sequence = i; body } in
      check (Printf.sprintf "case %d" i) true (roundtrip_response framed = framed))
    cases

let test_checksum_rejected () =
  let bytes =
    Plc.Dnp3.encode_request { Plc.Dnp3.sequence = 1; body = Plc.Dnp3.Clear_events { through = 1 } }
  in
  (* Corrupt one payload byte. *)
  let corrupted = Bytes.of_string bytes in
  Bytes.set corrupted (Bytes.length corrupted - 1)
    (Char.chr (Char.code (Bytes.get corrupted (Bytes.length corrupted - 1)) lxor 0xFF));
  check "corruption detected" true
    (match Plc.Dnp3.decode_request (Bytes.to_string corrupted) with
    | exception Plc.Dnp3.Decode_error _ -> true
    | _ -> false)

let test_bad_start_bytes_rejected () =
  check "garbage rejected" true
    (match Plc.Dnp3.decode_request "\x00\x00\x00\x00\x00\x00" with
    | exception Plc.Dnp3.Decode_error _ -> true
    | _ -> false)

let prop_operate_roundtrip =
  QCheck.Test.make ~count:200 ~name:"dnp3 operate roundtrips"
    QCheck.(pair (int_bound 0xFFFF) bool)
    (fun (index, close) ->
      let framed = { Plc.Dnp3.sequence = 9; body = Plc.Dnp3.Operate { index; close } } in
      roundtrip_request framed = framed)

let prop_static_roundtrip =
  QCheck.Test.make ~count:200 ~name:"dnp3 static data roundtrips"
    QCheck.(list_of_size Gen.(int_range 0 40) bool)
    (fun bits ->
      let framed = { Plc.Dnp3.sequence = 3; body = Plc.Dnp3.Static_data bits } in
      roundtrip_response framed = framed)

(* --- RTU outstation ------------------------------------------------------- *)

let make_rtu () =
  let engine = Sim.Engine.create () in
  let rtu = Plc.Rtu.create ~engine ~n_points:3 () in
  let breakers =
    Array.init 3 (fun i ->
        let b = Plc.Breaker.create ~engine ~actuation_delay:0.05 (Printf.sprintf "P%d" i) in
        Plc.Rtu.wire_breaker rtu ~index:i b;
        b)
  in
  (engine, rtu, breakers)

let ask rtu body =
  (Plc.Rtu.handle_request rtu { Plc.Dnp3.sequence = 1; body }).Plc.Dnp3.body

let test_rtu_static_read () =
  let engine, rtu, breakers = make_rtu () in
  Plc.Breaker.force breakers.(1) Plc.Breaker.Open;
  Sim.Engine.run ~until:0.1 engine;
  match ask rtu (Plc.Dnp3.Read_class { classes = [ 0 ] }) with
  | Plc.Dnp3.Static_data bits -> Alcotest.(check (list bool)) "states" [ true; false; true ] bits
  | _ -> Alcotest.fail "expected static data"

let test_rtu_buffers_events_with_timestamps () =
  let engine, rtu, breakers = make_rtu () in
  ignore (Sim.Engine.schedule engine ~delay:1.0 (fun () -> Plc.Breaker.force breakers.(0) Plc.Breaker.Open));
  ignore (Sim.Engine.schedule engine ~delay:2.5 (fun () -> Plc.Breaker.force breakers.(0) Plc.Breaker.Closed));
  Sim.Engine.run ~until:5.0 engine;
  (match ask rtu (Plc.Dnp3.Read_class { classes = [ 1 ] }) with
  | Plc.Dnp3.Events { events = [ e1; e2 ]; overflow = false } ->
      check "first event open" false e1.Plc.Dnp3.ev_closed;
      Alcotest.(check (float 0.001)) "device timestamp" 1.0 e1.Plc.Dnp3.ev_time;
      check "second event closed" true e2.Plc.Dnp3.ev_closed;
      Alcotest.(check (float 0.001)) "device timestamp 2" 2.5 e2.Plc.Dnp3.ev_time
  | _ -> Alcotest.fail "expected two events");
  (* Clearing through the newest read event empties the buffer. *)
  (match ask rtu (Plc.Dnp3.Clear_events { through = 2 }) with
  | Plc.Dnp3.Events_cleared -> ()
  | _ -> Alcotest.fail "expected clear ack");
  match ask rtu (Plc.Dnp3.Read_class { classes = [ 1 ] }) with
  | Plc.Dnp3.Events { events = []; overflow = false } -> ()
  | _ -> Alcotest.fail "buffer should be empty"

let test_rtu_clear_keeps_unread_events () =
  (* A change recorded between the master's event read and its clear was
     never reported: the clear must leave it buffered for the next read.
     Otherwise a flip and flip-back inside that window vanish, since the
     integrity poll then sees no change. *)
  let engine, rtu, breakers = make_rtu () in
  Plc.Breaker.force breakers.(0) Plc.Breaker.Open;
  let through =
    match ask rtu (Plc.Dnp3.Read_class { classes = [ 1 ] }) with
    | Plc.Dnp3.Events { events = [ e ]; _ } -> e.Plc.Dnp3.ev_number
    | _ -> Alcotest.fail "expected one event"
  in
  Sim.Engine.run ~until:0.5 engine;
  Plc.Breaker.force breakers.(0) Plc.Breaker.Closed;
  (match ask rtu (Plc.Dnp3.Clear_events { through }) with
  | Plc.Dnp3.Events_cleared -> ()
  | _ -> Alcotest.fail "expected clear ack");
  match ask rtu (Plc.Dnp3.Read_class { classes = [ 1 ] }) with
  | Plc.Dnp3.Events { events = [ e ]; _ } ->
      check "unread flip-back survives the clear" true e.Plc.Dnp3.ev_closed;
      Alcotest.(check (float 0.001)) "its device time" 0.5 e.Plc.Dnp3.ev_time
  | _ -> Alcotest.fail "expected the unread event"

let test_rtu_event_overflow () =
  let engine = Sim.Engine.create () in
  let rtu = Plc.Rtu.create ~event_buffer_limit:5 ~engine ~n_points:1 () in
  let b = Plc.Breaker.create ~engine "P0" in
  Plc.Rtu.wire_breaker rtu ~index:0 b;
  for _ = 1 to 10 do
    Plc.Breaker.toggle_force b
  done;
  check "overflow flagged" true (Plc.Rtu.events_overflowed rtu);
  check "buffer bounded" true (Plc.Rtu.pending_events rtu <= 5);
  (* Events shed between a read and its clear shift the buffer; the
     clear still removes only events up to the newest one read. *)
  let through =
    match ask rtu (Plc.Dnp3.Read_class { classes = [ 1 ] }) with
    | Plc.Dnp3.Events { events; overflow } ->
        check "the read carries the overflow flag" true overflow;
        List.fold_left (fun n e -> max n e.Plc.Dnp3.ev_number) 0 events
    | _ -> Alcotest.fail "expected events"
  in
  for _ = 1 to 3 do
    Plc.Breaker.toggle_force b
  done;
  ignore (ask rtu (Plc.Dnp3.Clear_events { through }));
  check_int "the three unread events survive" 3 (Plc.Rtu.pending_events rtu);
  (* Only events the master had read were shed since: the clear lowers
     the flag. *)
  check "flag cleared" false (Plc.Rtu.events_overflowed rtu)

let test_rtu_overflow_flag_survives_unread_shedding () =
  (* Events 1..5 are shed, 6..10 buffered and read; then 6 more changes
     shed 6..11. Event 11 was never read, so the clear through 10 must
     leave the flag up until a clear covers it. *)
  let engine = Sim.Engine.create () in
  let rtu = Plc.Rtu.create ~event_buffer_limit:5 ~engine ~n_points:1 () in
  let b = Plc.Breaker.create ~engine "P0" in
  Plc.Rtu.wire_breaker rtu ~index:0 b;
  for _ = 1 to 10 do
    Plc.Breaker.toggle_force b
  done;
  let read () =
    match ask rtu (Plc.Dnp3.Read_class { classes = [ 1 ] }) with
    | Plc.Dnp3.Events { events; overflow } ->
        (List.fold_left (fun n e -> max n e.Plc.Dnp3.ev_number) 0 events, overflow)
    | _ -> Alcotest.fail "expected events"
  in
  let through, overflow = read () in
  check_int "read through the newest" 10 through;
  check "first read flags the overflow" true overflow;
  for _ = 1 to 6 do
    Plc.Breaker.toggle_force b
  done;
  ignore (ask rtu (Plc.Dnp3.Clear_events { through }));
  check "unread event 11 was shed: flag stays" true (Plc.Rtu.events_overflowed rtu);
  let through, overflow = read () in
  check_int "next read through the newest" 16 through;
  check "next read still flags it" true overflow;
  ignore (ask rtu (Plc.Dnp3.Clear_events { through }));
  check "a clear past every shed event lowers it" false (Plc.Rtu.events_overflowed rtu);
  check "later reads are unflagged" false (snd (read ()))

let test_rtu_operate () =
  let engine, rtu, breakers = make_rtu () in
  (match ask rtu (Plc.Dnp3.Operate { index = 2; close = false }) with
  | Plc.Dnp3.Operate_ack { success = true; _ } -> ()
  | _ -> Alcotest.fail "expected successful ack");
  Sim.Engine.run ~until:1.0 engine;
  check "breaker opened" false (Plc.Breaker.is_closed breakers.(2));
  match ask rtu (Plc.Dnp3.Operate { index = 99; close = true }) with
  | Plc.Dnp3.Operate_ack { success = false; _ } -> ()
  | _ -> Alcotest.fail "expected failure ack"

(* --- end-to-end: Spire with a DNP3 RTU site -------------------------------- *)

let test_deployment_with_dnp3_rtu () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let scenario =
    {
      Plc.Power.scenario_name = "dnp3-mini";
      plcs =
        [ { Plc.Power.plc_name = "RTUSITE"; breaker_names = [ "R1"; "R2" ]; physical = true } ];
      feeds = [ { Plc.Power.load_name = "Feeder"; path = [ "R1"; "R2" ] } ];
    }
  in
  let config = Prime.Config.red_team () in
  let d =
    Spire.Deployment.create ~dnp3_plcs:[ "RTUSITE" ] ~engine ~trace ~config scenario
  in
  Sim.Engine.run ~until:3.0 engine;
  let hmi = (Spire.Deployment.hmis d).(0).Spire.Deployment.h_hmi in
  Alcotest.(check (option bool)) "hmi populated via dnp3" (Some true)
    (Scada.Hmi.displayed_closed hmi "R1");
  (* Field change flows through the RTU's event buffer. *)
  (match Spire.Deployment.find_breaker d "R1" with
  | Some (_, b) -> Plc.Breaker.force b Plc.Breaker.Open
  | None -> Alcotest.fail "breaker missing");
  Sim.Engine.run ~until:6.0 engine;
  Alcotest.(check (option bool)) "event reached hmi" (Some false)
    (Scada.Hmi.displayed_closed hmi "R1");
  (* Supervisory command goes out as a DNP3 Operate. *)
  ignore (Scada.Hmi.command hmi ~breaker:"R2" ~close:false);
  Sim.Engine.run ~until:12.0 engine;
  (match Spire.Deployment.find_breaker d "R2" with
  | Some (_, b) -> check "operate actuated breaker" false (Plc.Breaker.is_closed b)
  | None -> Alcotest.fail "breaker missing");
  (* And it really is the DNP3 frontend doing the work. *)
  check_int "frontend is dnp3" 1
    (match (Spire.Deployment.proxies d).(0).Spire.Deployment.p_frontend with
    | Spire.Deployment.Dnp3_rtu _ -> 1
    | Spire.Deployment.Modbus_plc _ -> 0)

let test_proxy_integrity_polls_on_overflow () =
  (* 301 changes at one instant overrun the RTU's 256-event buffer. The
     next event poll carries the overflow flag, and the proxy re-reads the
     static image at once instead of waiting up to 2 s for the scheduled
     integrity poll. *)
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let scenario =
    {
      Plc.Power.scenario_name = "dnp3-overflow";
      plcs =
        [ { Plc.Power.plc_name = "RTUSITE"; breaker_names = [ "R1"; "R2" ]; physical = true } ];
      feeds = [ { Plc.Power.load_name = "Feeder"; path = [ "R1"; "R2" ] } ];
    }
  in
  let d =
    Spire.Deployment.create ~dnp3_plcs:[ "RTUSITE" ] ~engine ~trace
      ~config:(Prime.Config.red_team ()) scenario
  in
  Sim.Engine.run ~until:3.0 engine;
  let proxy = (Spire.Deployment.proxies d).(0).Spire.Deployment.p_proxy in
  let count name = Sim.Stats.Counter.get (Scada.Proxy.counters proxy) name in
  let integrity = count "poll.integrity" in
  check_int "no overflow yet" 0 (count "dnp3.overflow");
  let r1 =
    match Spire.Deployment.find_breaker d "R1" with
    | Some (_, b) -> b
    | None -> Alcotest.fail "breaker missing"
  in
  for _ = 1 to 301 do
    Plc.Breaker.toggle_force r1
  done;
  (* The scheduled integrity polls fall at 2 s and 4 s. *)
  Sim.Engine.run ~until:3.5 engine;
  check_int "overflow seen once" 1 (count "dnp3.overflow");
  check_int "one immediate integrity poll" (integrity + 1) (count "poll.integrity");
  Sim.Engine.run ~until:6.0 engine;
  let hmi = (Spire.Deployment.hmis d).(0).Spire.Deployment.h_hmi in
  Alcotest.(check (option bool)) "hmi shows the final position" (Some false)
    (Scada.Hmi.displayed_closed hmi "R1")

(* Same-seed output of an all-DNP3 deployment, pinned by SHA-256: the
   flight log, every replica's execution point and state digest, and the
   HMI's displayed position of every breaker. The run covers event and
   integrity polls, analog telemetry, an FDIA analog freeze on SUB-002 at
   5 s and a forced open of SUB-002/B00 at 6 s. *)
let dnp3_golden_digest () =
  let flight = Obs.Flight.default in
  let prev_flight = Obs.Flight.enabled flight in
  Fun.protect
    ~finally:(fun () ->
      Obs.Flight.reset flight;
      Obs.Flight.set_enabled flight prev_flight)
  @@ fun () ->
  Obs.Flight.reset flight;
  Obs.Flight.set_enabled flight true;
  let engine = Sim.Engine.create ~seed:11L () in
  Obs.Flight.set_clock flight (fun () -> Sim.Engine.now engine);
  let trace = Sim.Trace.create () in
  let scenario = Plc.Power.synthetic ~devices:100 () in
  let dnp3_plcs =
    List.map (fun (p : Plc.Power.plc_spec) -> p.Plc.Power.plc_name) scenario.Plc.Power.plcs
  in
  let config = Prime.Config.power_plant () in
  let d = Spire.Deployment.create ~dnp3_plcs ~engine ~trace ~config scenario in
  ignore
    (Sim.Engine.schedule_at engine ~time:5.0 (fun () ->
         match Attack.Fdia.launch d ~site:"SUB-002" with
         | Ok _ -> ()
         | Error e -> Alcotest.fail e));
  ignore
    (Sim.Engine.schedule_at engine ~time:6.0 (fun () ->
         match Attack.Fdia.force_open d ~breaker:"SUB-002/B00" with
         | Ok () -> ()
         | Error e -> Alcotest.fail e));
  Sim.Engine.run ~until:12.0 engine;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Obs.Flight.to_jsonl flight);
  Array.iter
    (fun r ->
      Printf.bprintf buf "replica exec_seq=%d digest=%s\n"
        (Prime.Replica.exec_seq r.Spire.Deployment.r_replica)
        (Scada.State.digest (Scada.Master.state r.Spire.Deployment.r_master)))
    (Spire.Deployment.replicas d);
  let hmi = (Spire.Deployment.hmis d).(0).Spire.Deployment.h_hmi in
  List.iter
    (fun breaker ->
      Printf.bprintf buf "%s=%s\n" breaker
        (match Scada.Hmi.displayed_closed hmi breaker with
        | Some true -> "closed"
        | Some false -> "open"
        | None -> "unknown"))
    (Plc.Power.all_breakers scenario);
  Crypto.Sha256.hex_of_string (Buffer.contents buf)

let test_dnp3_golden () =
  Alcotest.(check string) "dnp3 deployment digest"
    "e054e7aae56dac7f14ee6ff898e2c628bdc7024f436ec8e74437a640ecffca27"
    (dnp3_golden_digest ())

let suite =
  [
    ("dnp3 request roundtrips", `Quick, test_request_roundtrips);
    ("dnp3 response roundtrips", `Quick, test_response_roundtrips);
    ("dnp3 checksum rejected", `Quick, test_checksum_rejected);
    ("dnp3 bad start bytes rejected", `Quick, test_bad_start_bytes_rejected);
    ("rtu static read", `Quick, test_rtu_static_read);
    ("rtu buffers events with timestamps", `Quick, test_rtu_buffers_events_with_timestamps);
    ("rtu clear keeps unread events", `Quick, test_rtu_clear_keeps_unread_events);
    ("rtu event overflow", `Quick, test_rtu_event_overflow);
    ( "rtu overflow flag survives unread shedding",
      `Quick,
      test_rtu_overflow_flag_survives_unread_shedding );
    ("dnp3 proxy integrity-polls on overflow", `Quick, test_proxy_integrity_polls_on_overflow);
    ("rtu operate", `Quick, test_rtu_operate);
    ("deployment with dnp3 rtu", `Quick, test_deployment_with_dnp3_rtu);
    ("dnp3 deployment matches golden digest", `Slow, test_dnp3_golden);
    QCheck_alcotest.to_alcotest prop_operate_roundtrip;
    QCheck_alcotest.to_alcotest prop_static_roundtrip;
  ]

let () = Alcotest.run "dnp3" [ ("dnp3", suite) ]
