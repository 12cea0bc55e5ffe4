(* Overlay topology and shortest-path routing.

   A topology is the static set of overlay nodes and undirected links,
   known to every daemon (as in Spines, where the overlay graph is
   configuration). Liveness is dynamic: each daemon maintains its own view
   of which links are currently up (driven by hellos and link-state
   announcements) and computes next hops with Dijkstra over that view.

   The constructor precomputes a per-node adjacency index so Dijkstra
   relaxes a node's own neighbor array instead of scanning every link in
   the graph, and views carry a monotone epoch (bumped only on real
   up/down transitions) so forwarding planes can cache next-hop tables
   and rebuild them exactly when the live-link view changes. *)

type node_id = int

type link = { a : node_id; b : node_id; weight : float }

type t = {
  nodes : node_id list;
  links : link list;
  (* node -> (neighbor, weight) array, sorted by neighbor id: the
     canonical relaxation order that makes routing tables reproducible. *)
  adjacency : (node_id, (node_id * float) array) Hashtbl.t;
  (* node -> neighbor ids in the same order, built once: daemons walk it
     on every flood. *)
  neighbor_lists : (node_id, node_id list) Hashtbl.t;
}

let create ~nodes ~links =
  let known id = List.mem id nodes in
  let seen = Hashtbl.create (List.length links) in
  List.iter
    (fun l ->
      if not (known l.a && known l.b) then
        invalid_arg (Printf.sprintf "Topology.create: link %d-%d references unknown node" l.a l.b);
      if l.a = l.b then invalid_arg "Topology.create: self-link";
      if l.weight <= 0.0 then invalid_arg "Topology.create: non-positive weight";
      (* A duplicate (a,b) pair would put the same edge in the adjacency
         index twice and let Dijkstra double-relax it. *)
      let key = (min l.a l.b, max l.a l.b) in
      if Hashtbl.mem seen key then
        invalid_arg (Printf.sprintf "Topology.create: duplicate link %d-%d" l.a l.b);
      Hashtbl.replace seen key ())
    links;
  let adjacency = Hashtbl.create (List.length nodes) in
  let add n entry =
    Hashtbl.replace adjacency n
      (entry :: (match Hashtbl.find_opt adjacency n with Some l -> l | None -> []))
  in
  List.iter
    (fun l ->
      add l.a (l.b, l.weight);
      add l.b (l.a, l.weight))
    links;
  let adjacency_arrays = Hashtbl.create (List.length nodes) in
  let neighbor_lists = Hashtbl.create (List.length nodes) in
  List.iter
    (fun n ->
      let entries =
        match Hashtbl.find_opt adjacency n with Some l -> l | None -> []
      in
      let arr = Array.of_list entries in
      Array.sort (fun (a, _) (b, _) -> compare a b) arr;
      Hashtbl.replace adjacency_arrays n arr;
      Hashtbl.replace neighbor_lists n (Array.to_list (Array.map fst arr)))
    nodes;
  { nodes; links; adjacency = adjacency_arrays; neighbor_lists }

let nodes t = t.nodes

let links t = t.links

let link ?(weight = 1.0) a b = { a; b; weight }

(* Full mesh, as used for the replicas' internal network. *)
let full_mesh nodes =
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> link x y) rest @ pairs rest
  in
  create ~nodes ~links:(pairs nodes)

(* Precomputed [(neighbor, weight)] array for a node, sorted by neighbor
   id ([| |] for unknown nodes). *)
let adjacency t id =
  match Hashtbl.find_opt t.adjacency id with Some a -> a | None -> [||]

let neighbors t id = match Hashtbl.find_opt t.neighbor_lists id with Some l -> l | None -> []

(* A link view says which links are currently believed up. Keys are
   normalised (min, max) pairs. The epoch counts real transitions only:
   re-asserting the current state leaves it untouched, so a cache keyed
   on the epoch is rebuilt exactly when routing could change. *)
module View = struct
  type view = { up : (node_id * node_id, unit) Hashtbl.t; mutable epoch : int }

  let key a b = (min a b, max a b)

  let all_up t =
    let up = Hashtbl.create 32 in
    List.iter (fun l -> Hashtbl.replace up (key l.a l.b) ()) t.links;
    { up; epoch = 0 }

  let set_link v a b ~up:is_up =
    let k = key a b in
    let was_up = Hashtbl.mem v.up k in
    if is_up && not was_up then begin
      Hashtbl.replace v.up k ();
      v.epoch <- v.epoch + 1
    end
    else if (not is_up) && was_up then begin
      Hashtbl.remove v.up k;
      v.epoch <- v.epoch + 1
    end

  let is_up v a b = Hashtbl.mem v.up (key a b)

  let epoch v = v.epoch
end

(* Dijkstra over the live links; returns next-hop map from [src].

   Relaxation walks the precomputed adjacency arrays (sorted by neighbor
   id), and equal-cost paths are tie-broken toward the smallest first-hop
   id, so the resulting table is canonical: it depends only on the
   topology and the set of live links, never on insertion or iteration
   order. Deterministic chaos replay relies on this. *)
let next_hops t view ~src =
  (* best: node -> (distance, first hop out of src on the best path). *)
  let best : (node_id, float * node_id option) Hashtbl.t = Hashtbl.create 16 in
  let heap = Sim.Heap.create () in
  Hashtbl.replace best src (0.0, None);
  Sim.Heap.push heap ~key:0.0 (src, None);
  let consider next nd hop =
    let improves =
      match Hashtbl.find_opt best next with
      | None -> true
      | Some (kd, kh) -> (
          nd < kd
          || nd = kd
             &&
             match (kh, hop) with
             | Some cur, Some cand -> cand < cur
             | _ -> false)
    in
    if improves then begin
      Hashtbl.replace best next (nd, hop);
      Sim.Heap.push heap ~key:nd (next, hop)
    end
  in
  let rec loop () =
    match Sim.Heap.pop heap with
    | None -> ()
    | Some (d, (node, via)) ->
        (* Only expand entries that still are the node's best; stale heap
           entries from superseded relaxations are skipped. *)
        (match Hashtbl.find_opt best node with
        | Some (bd, bh) when bd = d && bh = via ->
            Array.iter
              (fun (next, weight) ->
                if View.is_up view node next then
                  let hop = match via with None -> Some next | some -> some in
                  consider next (d +. weight) hop)
              (adjacency t node)
        | _ -> ());
        loop ()
  in
  loop ();
  let first_hop : (node_id, node_id) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun node (_, hop) -> match hop with Some h -> Hashtbl.replace first_hop node h | None -> ())
    best;
  first_hop

let route t view ~src ~dst =
  if src = dst then None else Hashtbl.find_opt (next_hops t view ~src) dst
