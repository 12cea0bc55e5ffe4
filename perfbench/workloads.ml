(* The three seeded workloads. Each builds its system from the seed,
   warms it up, then runs an open-loop probe schedule on the virtual
   clock: flips, commands and client updates fire at fixed times whatever
   the system's state, so the generator is never late (its lateness is 0
   by construction). Every run ends with a drain, after which anything
   not observed counts as failed.

   [setup] does everything up to the end of warm-up; [measure] runs the
   measured window; [recover] runs the recovery pass of a traced run,
   after the window. The host clocks are read around those two calls by
   the caller, so nothing here touches wall or CPU time except the
   [order] transport's optional per-call timing of
   [Prime.Replica.handle_message]. *)

(* Confirmation window of one Prime client: sequences submitted inside
   the measured window, and the latency of each one confirmed. *)
module Confirms = struct
  type t = { client : Prime.Client.t; mutable lo : int; mutable hi : int option; lat : (int, float) Hashtbl.t }

  let submitted c = Sim.Stats.Counter.get (Prime.Client.counters c) "submitted"

  let watch client =
    let t = { client; lo = max_int; hi = None; lat = Hashtbl.create 64 } in
    Prime.Client.set_on_confirmed client (fun ~client_seq ~latency ->
        let inside = match t.hi with None -> true | Some hi -> client_seq <= hi in
        if client_seq > t.lo && inside then Hashtbl.replace t.lat client_seq latency);
    t

  let open_window t = t.lo <- submitted t.client

  let close_window t = t.hi <- Some (submitted t.client)

  let attempted t = match t.hi with Some hi -> max 0 (hi - t.lo) | None -> 0

  let latencies t = Hashtbl.fold (fun _ l acc -> l :: acc) t.lat []
end

type outcome = {
  reaction : Tally.Ledger.t option;  (** flip -> HMI display (Section V) *)
  recovery_flips : Tally.Ledger.t option;  (** flips during the recovery pass *)
  command : Tally.Ledger.t option;  (** HMI command -> breaker moves *)
  confirm_attempted : int;
  confirm_latencies : float list;  (** submit -> f + 1 replies *)
  violations : string list;
  catch_up : float list;  (** restart -> rejoined, per recovery of the recovery pass *)
}

type run = {
  engine : Sim.Engine.t;
  warmup_end : float;
  run_end : float;
  counts : unit -> (string * int) list;  (** cumulative layer counters *)
  measure : tick:(unit -> unit) -> unit;
      (** advance from warm-up end to run end, calling [tick] between chunks *)
  recover : unit -> unit;
      (** after the window: restart replicas from a clean image and time
          their catch-up ([plant]; nothing elsewhere) *)
  finish : unit -> outcome;
}

(* Wall-clock cost of [Prime.Replica.handle_message] as the [order]
   transport sees it, accumulated only in traced runs. *)
type handle_timer = { mutable calls : int; mutable ns : float }

let handle_timer = { calls = 0; ns = 0.0 }

(* The measured window runs in chunks of this many virtual seconds;
   the caller's [tick] runs between them, outside the simulation. *)
let chunk = 0.25

let advance ~tick engine ~until =
  while Sim.Engine.now engine < until do
    Sim.Engine.run ~until:(Float.min until (Sim.Engine.now engine +. chunk)) engine;
    tick ()
  done

let seed_rng seed = Sim.Rng.create (Int64.of_int ((seed * 7919) + 104729))

let sum f arr = Array.fold_left (fun acc x -> acc + f x) 0 arr

let cget c name = Sim.Stats.Counter.get c name

(* --- layer counters ---------------------------------------------------------- *)

let prime_counts replicas =
  let total name = sum (fun r -> cget (Prime.Replica.counters r) name) replicas in
  [
    ("prime.msg_rx", total "msg.rx");
    ("prime.retransmits",
      total "order.retransmit" + total "po_request.retransmit" + total "suspect.retransmit"
      + total "vc.retransmit");
    ("prime.max_view", Array.fold_left (fun m r -> max m (Prime.Replica.view r)) 0 replicas);
    ("prime.exec_frontier", Array.fold_left (fun m r -> max m (Prime.Replica.exec_seq r)) 0 replicas);
    ("crypto.sign", total "crypto.sign");
    ("crypto.verify", total "crypto.verify");
    ("crypto.cache_hit", total "crypto.cache_hit");
    ("crypto.batch_flush", total "crypto.batch_flush");
    ("crypto.batch_msgs", total "crypto.batch_msgs");
  ]

(* Counters of one deployment. *)
let deployment_counts d =
  let open Spire.Deployment in
  let reps = replicas d in
  let switch name =
    cget (Netbase.Switch.counters (internal_switch d)) name
    + cget (Netbase.Switch.counters (external_switch d)) name
  in
  let node name =
    sum
      (fun r ->
        cget (Spines.Node.counters r.r_internal_node) name
        + cget (Spines.Node.counters r.r_external_node) name)
      reps
  in
  let master name = sum (fun r -> cget (Scada.Master.counters r.r_master) name) reps in
  (* Field updates applied: max over the group's replicas (they agree;
     max tolerates one lagging or recovering replica), as E18 counts. *)
  let applied =
    Array.fold_left
      (fun m r ->
        let c = Scada.Master.counters r.r_master in
        max m (cget c "apply.status" + cget c "apply.batch_updates"))
      0 reps
  in
  let durable f = sum (fun r -> match r.r_durable with Some dur -> f dur | None -> 0) reps in
  let wal name = durable (fun dur -> cget (Store.Wal.counters (Scada.Durable.wal dur)) name) in
  let dur name = durable (fun dur -> cget (Scada.Durable.counters dur) name) in
  prime_counts (Array.map (fun r -> r.r_replica) reps)
  @ [
      ("field.applied", applied);
      ("netbase.switch_tx", switch "tx");
      ("netbase.backlog_drops", switch "drop.backlog");
      ("netbase.pcap_records",
        Netbase.Pcap.length (internal_pcap d) + Netbase.Pcap.length (external_pcap d));
      ("spines.link_tx", node "link.tx");
      ("spines.route_dijkstra", node "route.dijkstra");
      ("spines.egress_drops", node "egress.drop");
      ("scada.apply_status", master "apply.status");
      ("scada.apply_command", master "apply.command");
      ("scada.apply_batch", master "apply.batch");
      ("scada.apply_batch_updates", master "apply.batch_updates");
      ("scada.apply_telemetry", master "apply.telemetry");
      ("scada.transfer_bytes", durable Scada.Durable.transfer_bytes);
      ("store.wal_appends", wal "wal.append");
      ("store.fsyncs", wal "wal.fsync");
      ("store.wal_bytes", durable (fun dur -> Store.Wal.bytes_appended (Scada.Durable.wal dur)));
      ("store.checkpoints", dur "durable.checkpoint");
      ("store.replayed_records", dur "durable.recovered_records");
      ("store.peer_installs", dur "durable.peer_install");
      ("power.solves", Power.Net.solves (power_net d));
    ]

(* Element-wise sum of same-shaped counter lists (one per shard). *)
let add_counts a b = List.map2 (fun (k, x) (_, y) -> (k, x + y)) a b

let with_events engine counts = ("sim.events", Sim.Engine.executed_events engine) :: counts

(* --- probes on a deployment ------------------------------------------------ *)

let position closed = if closed then Plc.Breaker.Closed else Plc.Breaker.Open

(* Reaction probes: [names] flipped physically, one flip every [period]
   seconds spread evenly over the set with a random phase inside each
   slot (no lock-in to any polling cycle), watched on [hmi]. Returns the
   operations waiting to be observed. *)
let schedule_flips ~engine ~rng ~ledger ~find ~hmi ~names ~period ~from ~until =
  let waiting = Tally.Expect.create () in
  Scada.Hmi.on_display_change hmi (fun ~breaker ~closed ->
      Tally.Expect.observe waiting breaker closed ~at:(Sim.Engine.now engine));
  let n = Array.length names in
  let slot = period /. float_of_int n in
  let count = int_of_float (Float.round ((until -. from) /. slot)) in
  for j = 0 to count - 1 do
    let name = names.(j mod n) in
    let b = find name in
    let due = from +. (slot *. float_of_int j) +. Sim.Rng.float rng slot in
    ignore
      (Sim.Engine.schedule_at engine ~time:due (fun () ->
           let expected = not (Plc.Breaker.is_closed b) in
           Tally.Expect.expect waiting name expected (Tally.Ledger.add ledger ~due);
           Plc.Breaker.force b (position expected)))
  done;
  waiting

(* Command probes: same schedule shape; each commands the breaker to the
   opposite of the previous command's target (of its position, the
   first time) through [hmi] and completes when [Plc.Breaker.on_change]
   reports that position. Returns the operations waiting. *)
let schedule_commands ~engine ~rng ~ledger ~find ~hmi ~names ~period ~from ~until =
  let waiting = Tally.Expect.create () in
  let last_target = Hashtbl.create 64 in
  Array.iter
    (fun name ->
      Plc.Breaker.on_change (find name) (fun b ->
          Tally.Expect.observe waiting name (Plc.Breaker.is_closed b)
            ~at:(Sim.Engine.now engine)))
    names;
  let n = Array.length names in
  let slot = period /. float_of_int n in
  let count = int_of_float (Float.round ((until -. from) /. slot)) in
  for j = 0 to count - 1 do
    let name = names.(j mod n) in
    let b = find name in
    let due = from +. (slot *. float_of_int j) +. Sim.Rng.float rng slot in
    ignore
      (Sim.Engine.schedule_at engine ~time:due (fun () ->
           let previous =
             Option.value ~default:(Plc.Breaker.is_closed b) (Hashtbl.find_opt last_target name)
           in
           let target = not previous in
           Hashtbl.replace last_target name target;
           Tally.Expect.expect waiting name target (Tally.Ledger.add ledger ~due);
           ignore (Scada.Hmi.command hmi ~breaker:name ~close:target)))
  done;
  waiting

let deployment_clients d =
  Array.to_list (Array.map (fun p -> p.Spire.Deployment.p_client) (Spire.Deployment.proxies d))
  @ Array.to_list (Array.map (fun h -> h.Spire.Deployment.h_client) (Spire.Deployment.hmis d))

let confirm_outcome confirms =
  ( List.fold_left (fun acc c -> acc + Confirms.attempted c) 0 confirms,
    List.concat_map Confirms.latencies confirms )

let describe (v : Chaos.Invariant.violation) =
  Printf.sprintf "%s at %.3f s: %s" v.Chaos.Invariant.v_invariant v.Chaos.Invariant.v_time
    v.Chaos.Invariant.v_detail

(* --- plant ------------------------------------------------------------------ *)

let plant_warmup = 5.0

let plant_drain = 3.0

(* Disjoint probe sets of this many breakers each: one set is flipped
   physically, the other commanded from the HMI. *)
let probes_per_class = 20

(* [plant_load] seconds of probes, each probe breaker moving once per
   [plant_spacing] seconds: 40 flips/s and 40 commands/s, 560 of each,
   so a loss of up to 10 % still leaves the 1 000 samples a p99 needs. *)
let plant_load = 14.0

let plant_spacing = 0.5

(* The recovery pass of a traced run, after the drain: proactive
   recovery of two replicas under a flip load. Each goes down for
   [recovery_down] seconds and comes back from a clean image, one every
   [recovery_period] seconds. Replica 0, the view-0 leader, keeps its
   disk (view change, checkpoint + WAL replay); replica 5 comes back
   with a wiped disk (state transfer from peers). The flip probes keep
   running, each breaker once per [recovery_spacing] seconds, so Prime
   has updates to catch up on; flips the HMI never shows are counted,
   not failed, since the run's operations are the window's. A replica
   not rejoined by the end of the pass is a violation. *)
let recovery_plan = [ (0, `Intact); (5, `Wiped) ]

let recovery_down = 1.0

let recovery_period = 6.0

let recovery_load = 12.0

let recovery_spacing = 3.0

let plant ~seed () =
  let engine = Sim.Engine.create ~seed:(Int64.of_int seed) () in
  let trace = Sim.Trace.create () in
  let config = Prime.Config.power_plant () in
  let d = Spire.Deployment.create ~engine ~trace ~config Plc.Power.power_plant in
  let invariant = Chaos.Invariant.create ~engine ~is_healthy:(fun () -> true) () in
  Chaos.Invariant.attach invariant d;
  let confirms = List.map Confirms.watch (deployment_clients d) in
  Sim.Engine.run ~until:plant_warmup engine;
  let from = plant_warmup and until = plant_warmup +. plant_load in
  let run_end = until +. plant_drain in
  (* Disjoint probe sets: a breaker is either flipped or commanded. *)
  let rng = seed_rng seed in
  let names = Array.of_list (Plc.Power.all_breakers Plc.Power.power_plant) in
  Sim.Rng.shuffle rng names;
  let flip_names = Array.sub names 0 probes_per_class in
  let cmd_names = Array.sub names probes_per_class probes_per_class in
  let find name =
    match Spire.Deployment.find_breaker d name with
    | Some (_, b) -> b
    | None -> invalid_arg ("unknown breaker " ^ name)
  in
  let hmi = (Spire.Deployment.hmis d).(0).Spire.Deployment.h_hmi in
  let reaction = Tally.Ledger.create () and command = Tally.Ledger.create () in
  let waiting_flips =
    schedule_flips ~engine ~rng ~ledger:reaction ~find ~hmi ~names:flip_names
      ~period:plant_spacing ~from ~until
  in
  let waiting_commands =
    schedule_commands ~engine ~rng ~ledger:command ~find ~hmi ~names:cmd_names
      ~period:plant_spacing ~from ~until
  in
  List.iter Confirms.open_window confirms;
  ignore
    (Sim.Engine.schedule_at engine ~time:until (fun () ->
         List.iter Confirms.close_window confirms));
  let replicas = Spire.Deployment.replicas d in
  let recovery_flips = Tally.Ledger.create () in
  let catch_up = ref [] and missed = ref [] in
  let recover () =
    (* The window's operations still waiting stay failed. *)
    Tally.Expect.close waiting_flips;
    Tally.Expect.close waiting_commands;
    let start = Sim.Engine.now engine in
    let pass_end = start +. recovery_load +. plant_drain in
    ignore
      (schedule_flips ~engine ~rng ~ledger:recovery_flips ~find ~hmi ~names:flip_names
         ~period:recovery_spacing ~from:start ~until:(start +. recovery_load));
    let rejoining = ref [] in
    let restarts =
      List.mapi
        (fun k (i, disk) ->
          let down_at = start +. 1.0 +. (recovery_period *. float_of_int k) in
          ignore
            (Sim.Engine.schedule_at engine ~time:down_at (fun () ->
                 Spire.Deployment.take_down_replica d i));
          let up_at = down_at +. recovery_down in
          ignore
            (Sim.Engine.schedule_at engine ~time:up_at (fun () ->
                 let frontier =
                   Array.fold_left
                     (fun m r -> max m (Prime.Replica.exec_seq r.Spire.Deployment.r_replica))
                     0 replicas
                 in
                 (match disk with
                 | `Wiped -> Spire.Deployment.bring_up_replica_clean d i
                 | `Intact -> Spire.Deployment.bring_up_replica_intact d i);
                 Chaos.Invariant.expect_recovery invariant ~replica:i;
                 rejoining := (i, up_at, frontier) :: !rejoining));
          up_at)
        recovery_plan
    in
    (* Catch-up at event granularity: from each restart the engine is
       stepped one event at a time and the rejoin predicate (running,
       origin re-based, [exec_seq] at the frontier the others had at the
       restart) is checked after each. [Sim.Engine.run ~until] moves the
       clock to its horizon even when [Sim.Engine.stop] cut it short, so
       the pass runs to each restart time and steps from there. *)
    let rejoined (i, _, frontier) =
      let r = replicas.(i).Spire.Deployment.r_replica in
      Prime.Replica.is_running r && Prime.Replica.origin_synced r
      && Prime.Replica.exec_seq r >= frontier
    in
    let rec go restarts =
      while !rejoining <> [] && Sim.Engine.now engine < pass_end && Sim.Engine.step engine do
        let now = Sim.Engine.now engine in
        let done_, waiting = List.partition rejoined !rejoining in
        List.iter (fun (_, t0, _) -> catch_up := (now -. t0) :: !catch_up) done_;
        rejoining := waiting
      done;
      match restarts with
      | t :: rest ->
          Sim.Engine.run ~until:t engine;
          go rest
      | [] -> Sim.Engine.run ~until:pass_end engine
    in
    go restarts;
    missed :=
      List.map
        (fun (i, t0, _) -> Printf.sprintf "replica %d restarted at %.3f s never rejoined" i t0)
        !rejoining
  in
  let finish () =
    Chaos.Invariant.stop invariant;
    let confirm_attempted, confirm_latencies = confirm_outcome confirms in
    {
      reaction = Some reaction;
      recovery_flips = Some recovery_flips;
      command = Some command;
      confirm_attempted;
      confirm_latencies;
      violations = List.map describe (Chaos.Invariant.violations invariant) @ !missed;
      catch_up = List.rev !catch_up;
    }
  in
  {
    engine;
    warmup_end = from;
    run_end;
    counts = (fun () -> with_events engine (deployment_counts d));
    measure = (fun ~tick -> advance ~tick engine ~until:run_end);
    recover;
    finish;
  }

(* --- order -------------------------------------------------------------------- *)

let order_rate = 1000.0

let order_warmup = 1.0

let order_load = 5.0

let order_drain = 3.0

let order_latency = 0.002

(* Loopback Prime cluster (the E13 harness shape) whose transport this
   benchmark owns: every message is one engine event [order_latency]
   later. With [timed], each delivery times the replica's handler. *)
let order ~timed ~seed () =
  let engine = Sim.Engine.create ~seed:(Int64.of_int seed) ~hint:4096 () in
  let trace = Sim.Trace.create () in
  let keystore = Crypto.Signature.create_keystore () in
  let config = Prime.Config.power_plant () in
  let n = config.Prime.Config.n in
  let replicas = Array.make n None in
  let replica i = Option.get replicas.(i) in
  let clients = Hashtbl.create 4 in
  let handle dst msg =
    if timed then begin
      let t0 = Unix.gettimeofday () in
      Prime.Replica.handle_message (replica dst) msg;
      handle_timer.calls <- handle_timer.calls + 1;
      handle_timer.ns <- handle_timer.ns +. ((Unix.gettimeofday () -. t0) *. 1e9)
    end
    else Prime.Replica.handle_message (replica dst) msg
  in
  let deliver ~dst msg =
    ignore (Sim.Engine.schedule engine ~delay:order_latency (fun () -> handle dst msg))
  in
  let transport id =
    {
      Prime.Replica.send = (fun ~dst msg -> deliver ~dst msg);
      broadcast =
        (fun msg ->
          for dst = 0 to n - 1 do
            if dst <> id then deliver ~dst msg
          done);
      reply_to_client =
        (fun ~client msg ->
          ignore
            (Sim.Engine.schedule engine ~delay:order_latency (fun () ->
                 Option.iter (fun c -> Prime.Client.handle_reply c msg)
                   (Hashtbl.find_opt clients client))));
    }
  in
  (* Agreement safety through the invariant checker's public
     observation entry point: no deployment to attach to here. *)
  let invariant = Chaos.Invariant.create ~engine ~is_healthy:(fun () -> true) () in
  for id = 0 to n - 1 do
    let keypair = Crypto.Signature.generate keystore (Prime.Msg.replica_identity id) in
    let r =
      Prime.Replica.create ~engine ~trace ~keystore ~keypair ~transport:(transport id) ~id config
    in
    Prime.Replica.set_on_execute r (fun ~exec_seq u ->
        let client, client_seq = Prime.Msg.Update.key u in
        Chaos.Invariant.note_execution invariant ~replica:id ~exec_seq
          ~identity:(Printf.sprintf "%s#%d:%s" client client_seq u.Prime.Msg.Update.op));
    replicas.(id) <- Some r
  done;
  let replicas = Array.map Option.get replicas in
  Array.iter Prime.Replica.start replicas;
  let keypair = Crypto.Signature.generate keystore "load" in
  let client =
    Prime.Client.create ~engine ~keystore ~keypair
      ~send_to_replica:(fun ~dst msg -> deliver ~dst msg)
      config
  in
  Hashtbl.replace clients (Prime.Client.identity client) client;
  let confirms = Confirms.watch client in
  Sim.Engine.run ~until:order_warmup engine;
  let from = order_warmup and until = order_warmup +. order_load in
  (* Open loop at [order_rate], each update at a seeded phase inside its
     slot, submitted through a non-leader replica as E13 does. *)
  let rng = seed_rng seed in
  let slot = 1.0 /. order_rate in
  let count = int_of_float (order_load *. order_rate) in
  for j = 0 to count - 1 do
    let due = from +. (slot *. float_of_int j) +. Sim.Rng.float rng slot in
    ignore
      (Sim.Engine.schedule_at engine ~time:due (fun () ->
           ignore
             (Prime.Client.submit ~targets:[ 1 ] client
                ~op:(Printf.sprintf "op-%d-%d" seed j))))
  done;
  Confirms.open_window confirms;
  ignore (Sim.Engine.schedule_at engine ~time:until (fun () -> Confirms.close_window confirms));
  let run_end = until +. order_drain in
  let finish () =
    let attempted, latencies = confirm_outcome [ confirms ] in
    let unconfirmed = List.length (Prime.Client.outstanding client) in
    {
      reaction = None;
      recovery_flips = None;
      command = None;
      confirm_attempted = attempted;
      confirm_latencies = latencies;
      violations =
        List.map describe (Chaos.Invariant.violations invariant)
        @
        if unconfirmed = 0 && attempted = count then []
        else
          [ Printf.sprintf "confirmed %d of %d submitted updates" (count - unconfirmed) count ];
      catch_up = [];
    }
  in
  {
    engine;
    warmup_end = from;
    run_end;
    counts =
      (fun () ->
        with_events engine
          (("client.confirmed", cget (Prime.Client.counters client) "confirmed")
          :: prime_counts replicas));
    measure = (fun ~tick -> advance ~tick engine ~until:run_end);
    recover = ignore;
    finish;
  }

(* --- grid ----------------------------------------------------------------------- *)

(* E18's 16-shard grid: 1 000 devices, 100 HMIs, 150 kB/s switch ports,
   every breaker toggled once per 5 s (200 updates/s offered). Every
   toggle inside the window is a reaction probe, watched on its shard's
   first HMI. *)
let grid_shards = 16

let grid_devices = 1_000

let grid_hmis = 100

let grid_toggle_period = 5.0

let grid_bandwidth = 150_000.0

let grid_build = 5.0

let grid_warmup = 10.0

let grid_load = 12.0

let grid_drain = 3.0

let grid ~seed () =
  let engine = Sim.Engine.create ~seed:(Int64.of_int seed) () in
  let trace = Sim.Trace.create () in
  let config = Prime.Config.create ~f:1 ~k:0 () in
  let scenario = Plc.Power.synthetic ~devices:grid_devices () in
  let n_hmis = (grid_hmis + grid_shards - 1) / grid_shards in
  let g =
    Spire.Grid.create ~n_hmis ~proxy_poll_period:0.5 ~switch_bandwidth:grid_bandwidth ~engine
      ~trace ~config ~shards:grid_shards scenario
  in
  let shards = Spire.Grid.shards g in
  let invariants =
    Array.map
      (fun s ->
        let inv = Chaos.Invariant.create ~engine ~is_healthy:(fun () -> true) () in
        Chaos.Invariant.attach inv s.Spire.Grid.s_deployment;
        inv)
      shards
  in
  let confirms =
    List.map Confirms.watch
      (List.concat_map (fun s -> deployment_clients s.Spire.Grid.s_deployment)
         (Array.to_list shards))
  in
  Sim.Engine.run ~until:grid_build engine;
  let from = grid_warmup and until = grid_warmup +. grid_load in
  let reaction = Tally.Ledger.create () in
  let waiting = Tally.Expect.create () in
  Array.iter
    (fun s ->
      let hmi = (Spire.Deployment.hmis s.Spire.Grid.s_deployment).(0).Spire.Deployment.h_hmi in
      Scada.Hmi.on_display_change hmi (fun ~breaker ~closed ->
          Tally.Expect.observe waiting breaker closed ~at:(Sim.Engine.now engine)))
    shards;
  (* Phases: evenly staggered as in E18, plus a seeded offset inside each
     breaker's stagger slot. *)
  let rng = seed_rng seed in
  let names = Array.of_list (Plc.Power.all_breakers scenario) in
  let stagger = grid_toggle_period /. float_of_int (Array.length names) in
  Array.iteri
    (fun i name ->
      match Spire.Grid.find_breaker g name with
      | None -> invalid_arg ("unknown breaker " ^ name)
      | Some (_, b) ->
          let phase = (stagger *. float_of_int i) +. Sim.Rng.float rng stagger in
          ignore
            (Sim.Engine.schedule engine ~delay:phase (fun () ->
                 ignore
                   (Sim.Engine.every engine ~period:grid_toggle_period (fun () ->
                        let now = Sim.Engine.now engine in
                        let expected = not (Plc.Breaker.is_closed b) in
                        if now >= from && now < until then
                          Tally.Expect.expect waiting name expected
                            (Tally.Ledger.add reaction ~due:now);
                        Plc.Breaker.force b (position expected))))))
    names;
  Sim.Engine.run ~until:grid_warmup engine;
  List.iter Confirms.open_window confirms;
  ignore
    (Sim.Engine.schedule_at engine ~time:until (fun () ->
         List.iter Confirms.close_window confirms));
  let finish () =
    Array.iter Chaos.Invariant.stop invariants;
    let confirm_attempted, confirm_latencies = confirm_outcome confirms in
    {
      reaction = Some reaction;
      recovery_flips = None;
      command = None;
      confirm_attempted;
      confirm_latencies;
      violations =
        List.concat_map
          (fun inv -> List.map describe (Chaos.Invariant.violations inv))
          (Array.to_list invariants);
      catch_up = [];
    }
  in
  {
    engine;
    warmup_end = from;
    run_end = until +. grid_drain;
    counts =
      (fun () ->
        let per_shard =
          Array.map (fun s -> deployment_counts s.Spire.Grid.s_deployment) shards
        in
        with_events engine
          (Array.fold_left add_counts per_shard.(0)
             (Array.sub per_shard 1 (Array.length per_shard - 1))));
    measure = (fun ~tick -> advance ~tick engine ~until:(until +. grid_drain));
    recover = ignore;
    finish;
  }

let names = [ "plant"; "order"; "grid" ]

(* Build and warm up the named workload. *)
let setup ~timed ~seed = function
  | "plant" -> plant ~seed ()
  | "order" -> order ~timed ~seed ()
  | "grid" -> grid ~seed ()
  | w -> invalid_arg ("unknown workload " ^ w)
