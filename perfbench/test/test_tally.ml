(* The benchmark's bookkeeping: percentiles and their sample floor,
   failure accounting, and what one update is on each workload. *)

let close = Alcotest.float 1e-12

let ascending n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  let a = ascending 1000 in
  Alcotest.check close "p50 nearest rank" 500.0 (Tally.percentile a 50.0);
  Alcotest.check close "p99 nearest rank" 990.0 (Tally.percentile a 99.0);
  Alcotest.check close "p100 is the max" 1000.0 (Tally.percentile a 100.0);
  Alcotest.check close "p0 is the min" 1.0 (Tally.percentile a 0.0);
  Alcotest.check close "single sample" 7.0 (Tally.percentile [| 7.0 |] 99.0);
  Alcotest.check_raises "empty" (Invalid_argument "Tally.percentile: no samples") (fun () ->
      ignore (Tally.percentile [||] 50.0))

let test_tail_floor () =
  let values n = List.init n (fun i -> float_of_int (n - i)) in
  (match Tally.tail (values 999) with
  | Ok _ -> Alcotest.fail "a p99 from 999 samples must be refused"
  | Error why -> Alcotest.(check bool) "names the count" true (String.length why > 0));
  match Tally.tail (values 1000) with
  | Error why -> Alcotest.fail why
  | Ok t ->
      Alcotest.(check int) "samples" 1000 t.Tally.samples;
      Alcotest.check close "p50 of unsorted input" 500.0 t.Tally.p50;
      Alcotest.check close "p99 of unsorted input" 990.0 t.Tally.p99

let test_median () =
  Alcotest.check close "odd" 2.0 (Tally.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "even" 2.5 (Tally.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_ledger () =
  let l = Tally.Ledger.create () in
  let a = Tally.Ledger.add l ~due:1.0 in
  let b = Tally.Ledger.add l ~due:2.0 in
  let _never = Tally.Ledger.add l ~due:3.0 in
  Tally.Ledger.complete a ~at:1.25;
  Tally.Ledger.complete b ~at:2.5;
  Tally.Ledger.complete b ~at:9.0;
  Alcotest.(check int) "attempted" 3 (Tally.Ledger.attempted l);
  Alcotest.(check int) "completed" 2 (Tally.Ledger.completed l);
  Alcotest.(check int) "failed: the one never observed" 1 (Tally.Ledger.failed l);
  Alcotest.(check (list close))
    "latency from the due time, first observation wins" [ 0.25; 0.5 ]
    (List.sort Float.compare (Tally.Ledger.latencies l))

let test_expect () =
  let l = Tally.Ledger.create () in
  let w = Tally.Expect.create () in
  let op value due =
    let o = Tally.Ledger.add l ~due in
    Tally.Expect.expect w "B57" value o;
    o
  in
  let first = op true 0.0 in
  let second = op false 1.0 in
  let third = op true 2.0 in
  let other = Tally.Ledger.add l ~due:0.0 in
  Tally.Expect.expect w "B56" true other;
  (* The display skips [first]'s position and shows [second]'s: the
     superseded operation stays failed, the shown one completes. *)
  Tally.Expect.observe w "B57" false ~at:1.5;
  Alcotest.(check bool) "superseded" true (first.Tally.Ledger.done_at = None);
  Alcotest.(check (option close)) "shown" (Some 1.5) second.Tally.Ledger.done_at;
  Tally.Expect.observe w "B57" true ~at:2.25;
  Alcotest.(check (option close)) "next in order" (Some 2.25) third.Tally.Ledger.done_at;
  Tally.Expect.observe w "B57" true ~at:3.0;
  Alcotest.(check bool) "keys are independent" true (other.Tally.Ledger.done_at = None);
  Tally.Expect.observe w "unknown" true ~at:3.0;
  Alcotest.(check int) "failed" 2 (Tally.Ledger.failed l)

(* A position pair the display never shows (a stale update dropped, a
   command lost) costs those two operations and nothing after them. *)
let test_expect_skipped_pair () =
  let l = Tally.Ledger.create () in
  let w = Tally.Expect.create () in
  let spacing = 0.5 and lag = 0.1 in
  let ops =
    List.init 8 (fun i ->
        let due = spacing *. float_of_int i in
        let o = Tally.Ledger.add l ~due in
        Tally.Expect.expect w "B57" (i mod 2 = 0) o;
        (* Positions 2 and 3 are never shown; each other one is shown
           [lag] after its due time, before the next one is due. *)
        if i <> 2 && i <> 3 then Tally.Expect.observe w "B57" (i mod 2 = 0) ~at:(due +. lag);
        o)
  in
  Alcotest.(check int) "only the unshown pair failed" 2 (Tally.Ledger.failed l);
  Alcotest.(check bool) "unshown pair" true
    (List.for_all (fun i -> (List.nth ops i).Tally.Ledger.done_at = None) [ 2; 3 ]);
  Alcotest.(check (list close))
    "later latencies do not grow" (List.init 6 (fun _ -> lag))
    (Tally.Ledger.latencies l)

(* A display that lags by more than one spacing still attributes each
   position to the operation that set it while only one of each value
   is outstanding. *)
let test_expect_lagging () =
  let l = Tally.Ledger.create () in
  let w = Tally.Expect.create () in
  let a = Tally.Ledger.add l ~due:0.0 in
  Tally.Expect.expect w "B57" true a;
  let b = Tally.Ledger.add l ~due:0.5 in
  Tally.Expect.expect w "B57" false b;
  Tally.Expect.observe w "B57" true ~at:0.75;
  Tally.Expect.observe w "B57" false ~at:1.0;
  Alcotest.(check (option close)) "first" (Some 0.75) a.Tally.Ledger.done_at;
  Alcotest.(check (option close)) "second" (Some 1.0) b.Tally.Ledger.done_at;
  Alcotest.(check int) "none failed" 0 (Tally.Ledger.failed l)

let test_updates () =
  let before = [ ("prime.exec_frontier", 100); ("client.confirmed", 0); ("field.applied", 40) ] in
  let after = [ ("prime.exec_frontier", 350); ("client.confirmed", 5000); ("field.applied", 1240) ] in
  let window = Tally.delta ~before ~after in
  let updates w = Tally.updates (Tally.unit_of_workload w) window in
  Alcotest.(check int) "plant: ordered executions" 250 (updates "plant");
  Alcotest.(check int) "order: confirmed client updates" 5000 (updates "order");
  Alcotest.(check int) "grid: applied field updates" 1200 (updates "grid");
  Alcotest.check close "per update" 4.0 (Tally.per_update 1000.0 250);
  Alcotest.check close "no updates" 0.0 (Tally.per_update 1000.0 0);
  Alcotest.check_raises "unknown workload" (Invalid_argument "Tally.unit_of_workload: x")
    (fun () -> ignore (Tally.unit_of_workload "x"))

let () =
  Alcotest.run "tally"
    [
      ( "tails",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "p99 sample floor" `Quick test_tail_floor;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "failures",
        [
          Alcotest.test_case "ledger" `Quick test_ledger;
          Alcotest.test_case "expected positions" `Quick test_expect;
          Alcotest.test_case "unshown pair" `Quick test_expect_skipped_pair;
          Alcotest.test_case "lagging display" `Quick test_expect_lagging;
        ] );
      ("updates", [ Alcotest.test_case "per workload" `Quick test_updates ]);
    ]
