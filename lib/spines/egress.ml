(* Bounded per-neighbor egress queue with priority scheduling and source
   fairness.

   The data plane enqueues every outbound payload here instead of
   transmitting immediately; a flush (driven by the sim clock) drains the
   queue in send order:

   - higher priority bands drain first;
   - within a band, origins are served round-robin (the paper's source
     fairness: a flooding origin cannot monopolise a link even after it
     has been admitted upstream), with the cursor persisting across
     flushes;
   - on overflow the lowest-priority traffic is dropped first: an
     arrival that is itself lowest-priority is rejected, otherwise the
     oldest message of the most-backlogged origin in the lowest band is
     evicted to make room.

   Everything is deterministic: origins are served in sorted circular
   order and eviction victims are chosen by (queue length, origin id),
   never by hash-table iteration order — chaos replay depends on the
   drain order being byte-identical across same-seed runs. *)

type 'a band = {
  queues : (int, 'a Queue.t) Hashtbl.t; (* origin -> FIFO *)
  mutable b_len : int;
  mutable cursor : int; (* origin served last; next round starts above it *)
}

type 'a t = {
  capacity : int;
  bands : (int, 'a band) Hashtbl.t; (* priority -> band *)
  mutable length : int;
  mutable drops : int;
}

type 'a outcome =
  | Enqueued
  | Rejected (* the arrival itself was lowest-priority and the queue is full *)
  | Evicted of 'a (* room was made by dropping this lower-priority message *)

let create ~capacity () =
  if capacity < 1 then invalid_arg "Egress.create: capacity must be >= 1";
  { capacity; bands = Hashtbl.create 4; length = 0; drops = 0 }

let length t = t.length

let drops t = t.drops

let band_for t prio =
  match Hashtbl.find_opt t.bands prio with
  | Some b -> b
  | None ->
      let b = { queues = Hashtbl.create 8; b_len = 0; cursor = min_int } in
      Hashtbl.replace t.bands prio b;
      b

let lowest_band t =
  Hashtbl.fold
    (fun prio band acc ->
      if band.b_len = 0 then acc
      else
        match acc with
        | Some (p, _) when p <= prio -> acc
        | _ -> Some (prio, band))
    t.bands None

(* The most-backlogged origin of a band (ties toward the higher id). *)
let victim_origin band =
  Hashtbl.fold
    (fun origin q acc ->
      let len = Queue.length q in
      if len = 0 then acc
      else
        match acc with
        | Some (o, l) when l > len || (l = len && o > origin) -> acc
        | _ -> Some (origin, len))
    band.queues None

let push_into t prio origin msg =
  let band = band_for t prio in
  let q =
    match Hashtbl.find_opt band.queues origin with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace band.queues origin q;
        q
  in
  Queue.push msg q;
  band.b_len <- band.b_len + 1;
  t.length <- t.length + 1

let enqueue t ~prio ~origin msg =
  if t.length < t.capacity then begin
    push_into t prio origin msg;
    Enqueued
  end
  else
    match lowest_band t with
    | Some (low_prio, _) when prio <= low_prio ->
        t.drops <- t.drops + 1;
        Rejected
    | Some (_, band) ->
        let victim =
          match victim_origin band with
          | Some (o, _) ->
              let q = Hashtbl.find band.queues o in
              let v = Queue.pop q in
              if Queue.is_empty q then Hashtbl.remove band.queues o;
              band.b_len <- band.b_len - 1;
              t.length <- t.length - 1;
              t.drops <- t.drops + 1;
              v
          | None -> assert false (* lowest_band returned a non-empty band *)
        in
        push_into t prio origin msg;
        Evicted victim
    | None ->
        (* capacity >= 1 and length >= capacity imply a non-empty band *)
        assert false

(* Non-empty origins of a band in circular order starting just above the
   fairness cursor. *)
let serve_order band =
  let origins =
    Hashtbl.fold
      (fun o q acc -> if Queue.is_empty q then acc else o :: acc)
      band.queues []
  in
  let origins = List.sort compare origins in
  let after, upto = List.partition (fun o -> o > band.cursor) origins in
  after @ upto

let drain t =
  let out = ref [] in
  let prios =
    Hashtbl.fold (fun p band acc -> if band.b_len > 0 then p :: acc else acc) t.bands []
    |> List.sort (fun a b -> compare b a)
  in
  List.iter
    (fun prio ->
      let band = Hashtbl.find t.bands prio in
      let rec round () =
        if band.b_len > 0 then begin
          List.iter
            (fun origin ->
              match Hashtbl.find_opt band.queues origin with
              | Some q when not (Queue.is_empty q) ->
                  let msg = Queue.pop q in
                  if Queue.is_empty q then Hashtbl.remove band.queues origin;
                  band.cursor <- origin;
                  band.b_len <- band.b_len - 1;
                  t.length <- t.length - 1;
                  out := (prio, origin, msg) :: !out
              | _ -> ())
            (serve_order band);
          round ()
        end
      in
      round ())
    prios;
  List.rev !out
