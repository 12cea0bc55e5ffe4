(** Static overlay topology plus per-daemon dynamic link views and
    shortest-path (Dijkstra) next-hop computation.

    The constructor builds a per-node adjacency index (so Dijkstra never
    scans the full link list), and link views carry a monotone epoch so
    forwarding planes can cache next-hop tables per view generation. *)

type node_id = int

type link = { a : node_id; b : node_id; weight : float }

type t

(** Raises [Invalid_argument] on self-links, unknown endpoints,
    non-positive weights, or duplicate links for the same (a, b) pair
    (in either orientation). *)
val create : nodes:node_id list -> links:link list -> t

val nodes : t -> node_id list

val links : t -> link list

val link : ?weight:float -> node_id -> node_id -> link

(** Complete graph over the nodes (the replicas' internal network). *)
val full_mesh : node_id list -> t

val neighbors : t -> node_id -> node_id list

module View : sig
  type view

  (** View with every configured link up, at epoch 0. *)
  val all_up : t -> view

  (** Changes the liveness of one link. Bumps {!epoch} only on a real
      transition; re-asserting the current state is a no-op. *)
  val set_link : view -> node_id -> node_id -> up:bool -> unit

  val is_up : view -> node_id -> node_id -> bool

  (** Monotone count of link transitions: equal epochs guarantee an
      unchanged live-link set, so cached routing tables remain valid. *)
  val epoch : view -> int
end

(** Next-hop table from [src] over the live links. Canonical: equal-cost
    paths tie-break toward the smallest first-hop id, so the table
    depends only on the topology and the live-link set. *)
val next_hops : t -> View.view -> src:node_id -> (node_id, node_id) Hashtbl.t

(** First hop from [src] toward [dst], if reachable. Recomputes Dijkstra
    per call — forwarding planes should cache {!next_hops} per
    {!View.epoch} instead. *)
val route : t -> View.view -> src:node_id -> dst:node_id -> node_id option
