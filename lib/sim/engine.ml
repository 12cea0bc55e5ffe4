(* Discrete-event simulation engine.

   Time is virtual (seconds as float). Events are thunks scheduled at
   absolute times; the run loop pops them in time order and executes them.
   Cancellation is lazy: a cancelled event stays in the queue but its thunk
   is skipped when popped.

   The queue is a hierarchical timer wheel ({!Wheel}): O(1)
   schedule/cancel for the dominant short-horizon timers, slab-allocated
   event cells, and pops in exactly (time, schedule-order) order, so
   same-seed runs are byte-identical — pinned by golden digests in the
   test suite. *)

type event_id = int

type t = {
  mutable now : float;
  queue : Wheel.t;
  rng : Rng.t;
  mutable executed : int;
  mutable stop_requested : bool;
}

(* [hint] pre-sizes the wheel's cell slab for the expected number of
   in-flight events; long deployment runs hold tens of thousands of
   pending events and the doubling churn showed up in profiles. *)
let create ?(seed = 0x5CADAL) ?(hint = 64) () =
  {
    now = 0.0;
    queue = Wheel.create ~hint:(max 16 hint) ();
    rng = Rng.create seed;
    executed = 0;
    stop_requested = false;
  }

let now t = t.now

let split_rng t = Rng.split t.rng

let executed_events t = t.executed

let schedule_at t ~time thunk =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %.9f is in the past (now %.9f)" time t.now);
  Wheel.schedule t.queue ~time thunk

let schedule t ~delay thunk =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.now +. delay) thunk

(* The wheel's packed stamps make a cancel of an executed (or recycled)
   cell a no-op, so no id bookkeeping is needed here. *)
let cancel t id = Wheel.cancel t.queue id

let cancelled_backlog t = Wheel.cancelled_backlog t.queue

let pending t = Wheel.length t.queue

let queue_capacity t = Wheel.capacity t.queue

let stop t = t.stop_requested <- true

let step t =
  match Wheel.pop t.queue with
  | Wheel.Empty -> false
  | Wheel.Cancelled time ->
      t.now <- time;
      true
  | Wheel.Event (time, thunk) ->
      t.now <- time;
      t.executed <- t.executed + 1;
      thunk ();
      true

(* Runs due events; [true] once nothing is due by the horizon, [false]
   when [stop] or the event budget cut the run short. A top-level loop
   with one peek per event and no closure: E17 gates minor words per
   event. *)
let rec drain t until budget =
  (not t.stop_requested)
  &&
  match (Wheel.peek t.queue, until) with
  | None, _ -> true
  | Some time, Some limit when time > limit -> true
  | Some _, _ when budget <= 0 -> false
  | Some _, _ ->
      ignore (step t);
      drain t until (budget - 1)

let run ?until ?(max_events = max_int) t =
  t.stop_requested <- false;
  let drained = drain t until max_events in
  (* A bounded run that got through every event due before the horizon
     leaves the clock there even if the queue went quiet earlier, so
     periodic processes restarted later stay aligned. A run cut short by
     [stop] or [max_events] leaves the clock at its last event. *)
  match until with Some limit when drained && limit > t.now -> t.now <- limit | _ -> ()

(* Recurring timer built from self-rescheduling one-shot events. The handle
   carries the id of the *next* occurrence so cancellation always hits the
   pending event. *)
type timer = { mutable next_event : event_id; mutable active : bool }

let every t ~period thunk =
  if period <= 0.0 then invalid_arg "Engine.every: period must be positive";
  let timer = { next_event = 0; active = true } in
  let rec arm delay =
    timer.next_event <-
      schedule t ~delay (fun () ->
          if timer.active then begin
            thunk ();
            if timer.active then arm period
          end)
  in
  arm period;
  timer

let cancel_timer t timer =
  if timer.active then begin
    timer.active <- false;
    cancel t timer.next_event
  end
