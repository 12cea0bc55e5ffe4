(* Pure bookkeeping behind the benchmark's numbers: tail percentiles with
   a sample-count floor, per-operation failure accounting, the per-workload
   definition of one "update", and the median over repetitions. Nothing
   here touches the simulator, so the test suite can pin it exactly. *)

(* Nearest-rank percentile of an ascending array, the rule
   [Sim.Stats.Summary.percentile] uses: exact on the stored samples. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Tally.percentile: no samples"
  else if p < 0.0 || p > 100.0 then invalid_arg "Tally.percentile: p outside [0, 100]"
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* A p99 is reported only from at least this many samples: with fewer,
   the 99th percentile rests on a handful of points beyond it. *)
let min_tail_samples = 1000

type tail = { samples : int; p50 : float; p99 : float }

let tail ?(min_samples = min_tail_samples) values =
  let n = List.length values in
  if n < min_samples then
    Error (Printf.sprintf "%d samples, fewer than the %d a p99 needs" n min_samples)
  else begin
    let a = Array.of_list values in
    Array.sort Float.compare a;
    Ok { samples = n; p50 = percentile a 50.0; p99 = percentile a 99.0 }
  end

(* Median of a non-empty list (mean of the middle pair when even). *)
let median values =
  match List.sort Float.compare values with
  | [] -> invalid_arg "Tally.median: empty"
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- operations ------------------------------------------------------------

   An open-loop operation is due at a fixed virtual time and completes
   when its effect is observed. Latency runs from the due time, so a
   stall also charges the operations queued behind it. An operation that
   has not completed when the run ends has failed; nothing is filtered
   out. *)

module Ledger = struct
  type op = { due : float; mutable done_at : float option }

  type t = { mutable ops : op list; mutable attempted : int }

  let create () = { ops = []; attempted = 0 }

  let add t ~due =
    let op = { due; done_at = None } in
    t.ops <- op :: t.ops;
    t.attempted <- t.attempted + 1;
    op

  (* The first observation wins; later ones (a repaint repeated by a
     second replica push, say) are ignored. *)
  let complete op ~at = if op.done_at = None then op.done_at <- Some at

  let attempted t = t.attempted

  let completed t = List.length (List.filter (fun op -> op.done_at <> None) t.ops)

  let failed t = t.attempted - completed t

  (* Due-to-done latencies of the completed operations, seconds. *)
  let latencies t =
    List.filter_map (fun op -> Option.map (fun d -> d -. op.due) op.done_at) t.ops
end

(* Operations waiting for an observed two-state value (a breaker
   position, a display cell), per key. An observation completes the
   NEWEST waiting operation that expects the observed value; every older
   one was superseded and stays failed. Matching the oldest instead would
   shift all later operations on the key by one position change once a
   change pair goes unshown (a stale display update dropped, a lost
   command), and every later latency would grow by two probe spacings.
   When several operations on a key are outstanding, the display cannot
   say which of them it reflects; taking the newest keeps one unshown
   change from skewing the rest of the run, and the older ones count as
   failed. *)
module Expect = struct
  (* Per key, waiting operations newest first. *)
  type t = (string, (bool * Ledger.op) list) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let expect (t : t) key value op =
    let waiting = Option.value ~default:[] (Hashtbl.find_opt t key) in
    Hashtbl.replace t key ((value, op) :: waiting)

  let observe (t : t) key value ~at =
    match Hashtbl.find_opt t key with
    | None -> ()
    | Some waiting ->
        let rec split newer = function
          | [] -> ()
          | (v, op) :: _superseded when v = value ->
              Ledger.complete op ~at;
              Hashtbl.replace t key (List.rev newer)
          | entry :: older -> split (entry :: newer) older
        in
        split [] waiting

  (* Stop waiting: operations still waiting stay failed, whatever is
     observed later. *)
  let close (t : t) = Hashtbl.reset t
end

(* --- updates ---------------------------------------------------------------

   What one unit of completed work is on each workload, as the name of
   the cumulative counter that counts it. The counters are sampled at the
   start and at the end of the measured window. *)

type update_unit =
  | Exec_frontier  (** highest [Prime.Replica.exec_seq]: one ordered execution *)
  | Confirmed  (** client updates confirmed by f + 1 replies *)
  | Applied_field  (** [apply.status] + [apply.batch_updates], as E18 counts them *)

(* The unit each workload counts. *)
let unit_of_workload = function
  | "plant" -> Exec_frontier
  | "order" -> Confirmed
  | "grid" -> Applied_field
  | w -> invalid_arg ("Tally.unit_of_workload: " ^ w)

let counter_of_unit = function
  | Exec_frontier -> "prime.exec_frontier"
  | Confirmed -> "client.confirmed"
  | Applied_field -> "field.applied"

let count counts name = Option.value ~default:0 (List.assoc_opt name counts)

(* Per-counter change over the window; [before] and [after] are
   snapshots of the same counters. *)
let delta ~before ~after = List.map (fun (k, v) -> (k, v - count before k)) after

let updates unit window = count window (counter_of_unit unit)

(* [x] per update, 0 when the window completed none. *)
let per_update x updates = if updates <= 0 then 0.0 else x /. float_of_int updates
