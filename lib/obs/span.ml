(* Causal span tracing over pipeline instances.

   The SCADA data path is a fixed stage sequence (flip -> proxy.report ->
   prime.accept -> prime.preorder -> prime.execute -> hmi.repaint)
   correlated by an out-of-band trace key — the canonical Scada.Op
   encoding, which already flows end to end unchanged. Embedding ids in
   messages would perturb the deterministic schedule (different sizes,
   different dedup), so instrumentation points instead call [mark] with
   the key they already have.

   An *opening* stage begins a new instance for its key (abandoning any
   still-open one — a flip that never reached the HMI); a *closing* stage
   completes it. Every stage records only its first occurrence per
   instance: replicas re-broadcast and retransmit, but causally the stage
   happened when it first happened. Marks with no open instance (e.g.
   periodic status polls that aren't part of a watched flip) are counted
   and dropped. *)

type instance = {
  trace : string;
  mutable marks : (string * float) list; (* newest first while building *)
  mutable complete : bool;
}

type store = {
  opens : (string, unit) Hashtbl.t;
  closes : (string, unit) Hashtbl.t;
  active : (string, instance) Hashtbl.t; (* open instance per trace key *)
  capacity : int option; (* retention cap on completed instances *)
  mutable completed_buf : instance array; (* ring, mirrors Sim.Trace *)
  mutable completed_len : int;
  mutable completed_start : int;
  mutable completed_n : int; (* instances ever completed *)
  mutable abandoned : int; (* re-opened before closing *)
  mutable orphans : int; (* marks with no open instance *)
}

let dummy_instance = { trace = ""; marks = []; complete = false }

let create_store ?capacity ?(opens = []) ?(closes = []) () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Span.create_store: capacity must be positive"
  | _ -> ());
  let table keys =
    let h = Hashtbl.create 8 in
    List.iter (fun k -> Hashtbl.replace h k ()) keys;
    h
  in
  {
    opens = table opens;
    closes = table closes;
    active = Hashtbl.create 64;
    capacity;
    completed_buf = Array.make (match capacity with Some c -> Stdlib.min c 64 | None -> 64) dummy_instance;
    completed_len = 0;
    completed_start = 0;
    completed_n = 0;
    abandoned = 0;
    orphans = 0;
  }

(* Append a completed instance, overwriting the oldest once the
   retention cap is reached; an uncapped store just keeps growing. *)
let push_completed store inst =
  let cap_reached = match store.capacity with Some c -> store.completed_len = c | None -> false in
  if cap_reached then begin
    store.completed_buf.(store.completed_start) <- inst;
    store.completed_start <- (store.completed_start + 1) mod store.completed_len
  end
  else begin
    if store.completed_len = Array.length store.completed_buf then begin
      let target =
        match store.capacity with
        | Some c -> Stdlib.min c (store.completed_len * 2)
        | None -> store.completed_len * 2
      in
      let buf = Array.make target dummy_instance in
      Array.blit store.completed_buf 0 buf 0 store.completed_len;
      store.completed_buf <- buf
    end;
    store.completed_buf.((store.completed_start + store.completed_len) mod Array.length store.completed_buf) <- inst;
    store.completed_len <- store.completed_len + 1
  end;
  store.completed_n <- store.completed_n + 1

let mark store ~trace ~stage ~time =
  if Hashtbl.mem store.opens stage then begin
    (match Hashtbl.find_opt store.active trace with
    | Some _ -> store.abandoned <- store.abandoned + 1
    | None -> ());
    Hashtbl.replace store.active trace
      { trace; marks = [ (stage, time) ]; complete = false }
  end
  else
    match Hashtbl.find_opt store.active trace with
    | None -> store.orphans <- store.orphans + 1
    | Some inst ->
        if not (List.mem_assoc stage inst.marks) then begin
          inst.marks <- (stage, time) :: inst.marks;
          if Hashtbl.mem store.closes stage then begin
            inst.complete <- true;
            inst.marks <- List.rev inst.marks; (* freeze in causal order *)
            Hashtbl.remove store.active trace;
            push_completed store inst
          end
        end

let completed store =
  let cap = Array.length store.completed_buf in
  let acc = ref [] in
  for i = store.completed_len - 1 downto 0 do
    acc := store.completed_buf.((store.completed_start + i) mod cap) :: !acc
  done;
  !acc

let completed_count store = store.completed_n

let completed_retained store = store.completed_len

let active_count store = Hashtbl.length store.active

let abandoned_count store = store.abandoned

let orphan_count store = store.orphans

let mark_time inst stage = List.assoc_opt stage inst.marks

let marks inst = if inst.complete then inst.marks else List.rev inst.marks

(* Per-stage-pair latency summaries over completed instances. Instances
   missing either endpoint are skipped (a stage can legitimately be
   absent, e.g. overlay hops on a loopback harness). *)
let stage_breakdown store ~stages =
  List.map
    (fun (label, from_stage, to_stage) ->
      let summary = Sim.Stats.Summary.create () in
      List.iter
        (fun inst ->
          match (mark_time inst from_stage, mark_time inst to_stage) with
          | Some a, Some b -> Sim.Stats.Summary.add summary (b -. a)
          | _ -> ())
        (completed store);
      (label, summary))
    stages

let reset store =
  Hashtbl.reset store.active;
  Array.fill store.completed_buf 0 (Array.length store.completed_buf) dummy_instance;
  store.completed_len <- 0;
  store.completed_start <- 0;
  store.completed_n <- 0;
  store.abandoned <- 0;
  store.orphans <- 0

(* Trace keys: the canonical Scada.Op encodings. Building them here (not
   via Scada.Op) keeps obs below scada in the dependency order. *)

let status_key ~breaker ~closed = Printf.sprintf "status:%s:%d" breaker (if closed then 1 else 0)

let command_key ~breaker ~close = Printf.sprintf "cmd:%s:%d" breaker (if close then 1 else 0)
