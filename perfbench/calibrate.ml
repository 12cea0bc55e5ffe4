(* Calibration pass: host nanoseconds per call of each layer's hot public
   function, on inputs shaped like the run's. Multiplied by the run's
   exact operation counts these give the per-layer [*.cpu_share]
   estimates; each figure is the median of several timed batches. *)

type t = {
  sign_ns : float;
  verify_ns : float;
  apply_ns : float;
  solve_ns : float;
  wal_append_ns : float;
  event_ns : float;  (** one [Sim.Engine.schedule] plus the [step] that runs it *)
}

let batches = 5

(* Median host ns per call of [f] over [batches] batches of [iters]. *)
let ns_per_call ~iters f =
  Tally.median
    (List.init batches (fun _ ->
         let t0 = Unix.gettimeofday () in
         for i = 1 to iters do
           f i
         done;
         (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters))

(* Prime messages signed and verified in a run are a few hundred bytes. *)
let message = String.init 256 (fun i -> Char.chr (i land 0xff))

let crypto () =
  let ks = Crypto.Signature.create_keystore () in
  let kp = Crypto.Signature.generate ks "calibration" in
  let sg = Crypto.Signature.sign kp message in
  let sign_ns = ns_per_call ~iters:5_000 (fun _ -> ignore (Crypto.Signature.sign kp message)) in
  let verify_ns =
    ns_per_call ~iters:5_000 (fun _ ->
        ignore (Crypto.Signature.verify ks ~signer:"calibration" message sg))
  in
  (sign_ns, verify_ns)

(* One batched poll report of [batch] position changes, applied to a
   state of the run's scenario; positions alternate so every report
   changes state and the digest work is real. *)
let apply ~scenario ~batch =
  let state = Scada.State.create scenario in
  let names = Array.of_list (Plc.Power.all_breakers scenario) in
  let n = Array.length names in
  let batch = max 1 (min batch n) in
  ns_per_call ~iters:2_000 (fun i ->
      let reports =
        List.init batch (fun j -> (names.(((i * batch) + j) mod n), (i / n) mod 2 = 0))
      in
      ignore
        (Scada.State.apply state ~exec_seq:i
           (Scada.Op.Batch { origin = "calibration"; cursor = i; reports })))

let solve ~scenario =
  let model = Power.Model.of_scenario scenario in
  let names = Array.of_list (Plc.Power.all_breakers scenario) in
  let n = Array.length names in
  ns_per_call ~iters:200 (fun i ->
      let open_one = names.(i mod n) in
      ignore
        (Power.Model.solve model
           ~breaker_closed:(fun b -> not (String.equal b open_one))
           ~line_in_service:(fun _ -> true)))

let wal_append ~record_bytes =
  let config = Prime.Config.power_plant () in
  let media = Store.Media.create ~rng:(Sim.Rng.create 1L) "calibration" in
  let wal =
    Store.Wal.create ~segment_size:config.Prime.Config.wal_segment_size
      ~fsync_every:config.Prime.Config.fsync_every media
  in
  let record = String.make (max 1 record_bytes) 'w' in
  ns_per_call ~iters:5_000 (fun i ->
      Store.Wal.append wal record;
      (* Keep the device bounded as the replicas' checkpoints do. *)
      if i mod 1_000 = 0 then ignore (Store.Wal.gc_before wal ~segment:(Store.Wal.current_segment wal)))

(* Schedule + step with [pending] other events queued, the depth a
   deployment run keeps. *)
let engine_event ~pending =
  let engine = Sim.Engine.create ~seed:1L () in
  let noop () = () in
  for i = 1 to pending do
    ignore (Sim.Engine.schedule engine ~delay:(1e6 +. float_of_int i) noop)
  done;
  ns_per_call ~iters:20_000 (fun i ->
      ignore (Sim.Engine.schedule engine ~delay:(1e-4 *. float_of_int (i land 7)) noop);
      ignore (Sim.Engine.step engine))

let run ~scenario ~batch ~record_bytes =
  let sign_ns, verify_ns = crypto () in
  {
    sign_ns;
    verify_ns;
    apply_ns = apply ~scenario ~batch;
    solve_ns = solve ~scenario;
    wal_append_ns = wal_append ~record_bytes;
    event_ns = engine_event ~pending:4_096;
  }
