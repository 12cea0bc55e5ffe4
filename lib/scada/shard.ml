(* Shard map: partitions a power scenario's field space into substation
   shards, each served by its own Prime-replicated master group.

   The unit of partitioning is the PLC/site, never the breaker: a proxy
   polls one device and talks to exactly one master group, and a feed's
   breakers almost always live on one site. Sites are dealt round-robin
   in scenario order, so the map is a pure function of (scenario,
   shards) — same-seed runs of a sharded deployment place every device
   identically.

   Feeds follow the shard of their first path breaker. A feed whose path
   spans shards stays computable but conservative: the owning shard sees
   foreign breakers as unknown (hence open), so a cross-shard load reads
   as dark rather than falsely energized. *)

type t = {
  shards : int;
  sub_scenarios : Plc.Power.scenario array;
  site_to_shard : (string, int) Hashtbl.t;
  breaker_to_shard : (string, int) Hashtbl.t;
}

let create ~shards scenario =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  let site_to_shard = Hashtbl.create 64 in
  let breaker_to_shard = Hashtbl.create 256 in
  List.iteri
    (fun i (p : Plc.Power.plc_spec) ->
      let shard = i mod shards in
      Hashtbl.replace site_to_shard p.Plc.Power.plc_name shard;
      List.iter
        (fun b -> Hashtbl.replace breaker_to_shard b shard)
        p.Plc.Power.breaker_names)
    scenario.Plc.Power.plcs;
  let feed_shard (f : Plc.Power.feed) =
    match f.Plc.Power.path with
    | [] -> 0
    | first :: _ -> Option.value ~default:0 (Hashtbl.find_opt breaker_to_shard first)
  in
  let sub_scenarios =
    Array.init shards (fun s ->
        {
          Plc.Power.scenario_name =
            Printf.sprintf "%s/s%02d" scenario.Plc.Power.scenario_name s;
          plcs =
            List.filteri
              (fun i _ -> i mod shards = s)
              scenario.Plc.Power.plcs;
          feeds = List.filter (fun f -> feed_shard f = s) scenario.Plc.Power.feeds;
        })
  in
  { shards; sub_scenarios; site_to_shard; breaker_to_shard }

let shards t = t.shards

let sub_scenario t s =
  if s < 0 || s >= t.shards then invalid_arg "Shard.sub_scenario: shard out of range";
  t.sub_scenarios.(s)

let shard_of_site t name = Hashtbl.find_opt t.site_to_shard name

let shard_of_breaker t name = Hashtbl.find_opt t.breaker_to_shard name

(* Stable short label used to suffix probe names and group monitor
   output ("@s03"). *)
let label s = Printf.sprintf "s%02d" s
