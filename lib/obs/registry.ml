(* Telemetry registry: the pipeline-mark span store behind one [enabled]
   switch.

   The switch is the whole design: [mark] first checks [enabled] and
   returns — a single load and branch — so the instrumented protocol hot
   paths cost nothing measurable when telemetry is off. Instrumentation
   is purely passive (no engine events, no RNG draws, no message
   changes), so a disabled registry leaves the deterministic schedule
   bit-identical to an uninstrumented build.

   [default] is the global registry the stack records into; benches and
   tests can also create private registries. *)

(* The standard SCADA pipeline stages, in causal order. *)
let stage_flip = "flip"
let stage_report = "proxy.report"
let stage_accept = "prime.accept"
let stage_preorder = "prime.preorder"
let stage_execute = "prime.execute"
let stage_push = "master.push"
let stage_repaint = "hmi.repaint"
let stage_command = "hmi.command"
let stage_actuate = "proxy.actuate"

let pipeline_opens = [ stage_flip; stage_command ]

let pipeline_closes = [ stage_repaint; stage_actuate ]

type t = { mutable enabled : bool; spans : Span.store }

let create () =
  { enabled = false; spans = Span.create_store ~opens:pipeline_opens ~closes:pipeline_closes () }

let default = create ()

let enabled t = t.enabled

let set_enabled t on = t.enabled <- on

let mark t ~trace ~stage ~time = if t.enabled then Span.mark t.spans ~trace ~stage ~time

let spans t = t.spans

let reset t = Span.reset t.spans

(* Run [f] with [t] enabled, restoring the previous state and returning
   [f]'s result. The registry is reset on entry so the window observes
   only its own marks. *)
let with_enabled t f =
  let previous = t.enabled in
  reset t;
  t.enabled <- true;
  Fun.protect ~finally:(fun () -> t.enabled <- previous) f
