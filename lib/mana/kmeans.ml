(* k-means clustering over feature vectors.

   MANA's anomaly model clusters the baseline traffic's feature vectors;
   at detection time, distance to the nearest centroid measures how far a
   window strays from any behaviour seen in training. Deterministic:
   initial centroids are drawn from the provided RNG stream. *)

type t = { centroids : float array array }

let sq_distance a b =
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. ((x -. b.(i)) *. (x -. b.(i)))) a;
  !acc

(* Index and distance of the nearest centroid. *)
let nearest t v =
  let best = ref 0 and best_d = ref infinity in
  Array.iteri
    (fun i c ->
      let d = sq_distance v c in
      if d < !best_d then begin
        best_d := d;
        best := i
      end)
    t.centroids;
  (!best, sqrt !best_d)

let distance t v = snd (nearest t v)

let train ~rng ~k ~iterations data =
  match data with
  | [] -> invalid_arg "Kmeans.train: no data"
  | first :: _ ->
      let dim = Array.length first in
      let points = Array.of_list data in
      let k = min k (Array.length points) in
      (* Initialise from distinct random points. *)
      let indices = Array.init (Array.length points) (fun i -> i) in
      Sim.Rng.shuffle rng indices;
      let centroids = Array.init k (fun i -> Array.copy points.(indices.(i))) in
      let model = ref { centroids } in
      for _ = 1 to iterations do
        let sums = Array.init k (fun _ -> Array.make dim 0.0) in
        let counts = Array.make k 0 in
        Array.iter
          (fun p ->
            let c, _ = nearest !model p in
            counts.(c) <- counts.(c) + 1;
            Array.iteri (fun i x -> sums.(c).(i) <- sums.(c).(i) +. x) p)
          points;
        let centroids =
          Array.init k (fun c ->
              if counts.(c) = 0 then !model.centroids.(c)
              else Array.map (fun s -> s /. float_of_int counts.(c)) sums.(c))
        in
        model := { centroids }
      done;
      !model

