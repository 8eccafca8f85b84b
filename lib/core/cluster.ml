open Kdom_graph

type t = { center : int; members : int list }
type partition = { host : Graph.t; clusters : t list }

let size c = List.length c.members
let singleton v = { center = v; members = [ v ] }

let partition host clusters =
  let n = Graph.n host in
  let seen = Array.make n false in
  List.iter
    (fun c ->
      if not (List.mem c.center c.members) then
        invalid_arg "Cluster.partition: center not a member of its cluster";
      List.iter
        (fun v ->
          if v < 0 || v >= n then invalid_arg "Cluster.partition: node out of range";
          if seen.(v) then invalid_arg "Cluster.partition: clusters overlap";
          seen.(v) <- true)
        c.members)
    clusters;
  if not (Array.for_all Fun.id seen) then
    invalid_arg "Cluster.partition: clusters do not cover all nodes";
  { host; clusters }

let owners host members =
  let owner = Array.make (Graph.n host) (-1) in
  Array.iteri (fun i ms -> List.iter (fun v -> owner.(v) <- i) ms) members;
  owner

let members_of clusters = Array.map (fun c -> c.members) clusters
let cluster_of_array p = owners p.host (members_of (Array.of_list p.clusters))

let centers p = List.map (fun c -> c.center) p.clusters

let bfs_trees host ~owner ~queue ~visit clusters =
  Array.mapi
    (fun i c ->
      if owner.(c.center) <> i then invalid_arg "Cluster.radius: center outside its cluster";
      owner.(c.center) <- -2;
      queue.(0) <- c.center;
      (* level by level: [queue.(lo .. hi-1)] is the current level *)
      let lo = ref 0 and hi = ref 1 and radius = ref 0 in
      while !lo < !hi do
        let next = ref !hi in
        for j = !lo to !hi - 1 do
          let v = queue.(j) in
          Array.iter
            (fun (u, _) ->
              if owner.(u) = i then begin
                owner.(u) <- -2;
                visit u v;
                queue.(!next) <- u;
                incr next
              end)
            (Graph.neighbors host v)
        done;
        if !next > !hi then incr radius;
        lo := !hi;
        hi := !next
      done;
      if not (List.for_all (fun v -> owner.(v) = -2) c.members) then
        invalid_arg "Cluster.radius: induced subgraph disconnected";
      !radius)
    clusters

(* [bfs_trees] with fresh host-sized scratch. *)
let trees host clusters ~visit =
  bfs_trees host ~owner:(owners host (members_of clusters))
    ~queue:(Array.make (Graph.n host) 0)
    ~visit clusters

let no_visit _ _ = ()

let radius host c = (trees host [| c |] ~visit:no_visit).(0)

let induced_connected host c =
  match radius host c with _ -> true | exception Invalid_argument _ -> false

let max_radius p =
  Array.fold_left max 0 (trees p.host (Array.of_list p.clusters) ~visit:no_visit)

let min_size p =
  match p.clusters with
  | [] -> 0
  | cs -> List.fold_left (fun acc c -> min acc (size c)) max_int cs

let plan_of_partition p =
  let n = Graph.n p.host in
  let dominator = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let depth = Array.make n 0 in
  List.iter (fun c -> List.iter (fun v -> dominator.(v) <- c.center) c.members) p.clusters;
  ignore
    (trees p.host (Array.of_list p.clusters) ~visit:(fun u v ->
         parent.(u) <- v;
         depth.(u) <- depth.(v) + 1));
  { Kdom_congest.Repair.dominator; parent; depth }

let plan_of_centers g centers =
  let n = Graph.n g in
  if centers = [] then invalid_arg "Cluster.plan_of_centers: no centers";
  List.iter
    (fun c ->
      if c < 0 || c >= n then
        invalid_arg "Cluster.plan_of_centers: center out of range")
    centers;
  let b = Traversal.bfs_multi g centers in
  let dominator = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let depth = Array.make n 0 in
  List.iter (fun c -> dominator.(c) <- c) centers;
  (* visit order guarantees a node's BFS parent is finished first, so
     ownership flows outward from each center; unreachable nodes keep the
     joiner sentinel (-1, -1, 0) *)
  Array.iter
    (fun v ->
      if b.Traversal.dist.(v) > 0 then begin
        parent.(v) <- b.Traversal.parent.(v);
        depth.(v) <- b.Traversal.dist.(v);
        dominator.(v) <- dominator.(b.Traversal.parent.(v))
      end)
    b.Traversal.order;
  { Kdom_congest.Repair.dominator; parent; depth }

let induced g members =
  let members = Array.of_list members in
  let nm = Array.length members in
  let local = Int_table.create 16 in
  Array.iteri (fun i v -> Int_table.replace local v i) members;
  (* each induced edge once, from its lower endpoint (a repeated member at
     its last position only), then listed in host edge-id order *)
  let ids = ref [] in
  Array.iteri
    (fun i v ->
      if v >= 0 && v < Graph.n g && Int_table.find local v = i then
        Array.iter
          (fun (u, (e : Graph.edge)) ->
            if e.u = v && Int_table.mem local u then ids := e.id :: !ids)
          (Graph.neighbors g v))
    members;
  let ids = Array.of_list !ids in
  Array.sort Int.compare ids;
  let edges =
    Array.map
      (fun id ->
        let e = Graph.edge g id in
        (Int_table.find local e.u, Int_table.find local e.v, e.w))
      ids
  in
  (Graph.of_edge_array ~n:nm edges, members)

(* A pair of clusters (a, b) as the int a * nc + b, a < b. *)
let pair_key nc a b = if a < b then (a * nc) + b else (b * nc) + a

(* [f e key] for each host edge [e] between two clusters. *)
let iter_joins host ~owner nc f =
  Array.iter
    (fun (e : Graph.edge) ->
      let a = owner.(e.u) and b = owner.(e.v) in
      if a >= 0 && b >= 0 && a <> b then f e (pair_key nc a b))
    (Graph.edges host)

(* Each pair of adjacent clusters, by key, mapped to its rank among the
   pairs in the order of their first host edges' ids. *)
let adjacent_pairs host ~owner nc =
  let rank = Int_table.create 16 in
  iter_joins host ~owner nc (fun _ key ->
      if not (Int_table.mem rank key) then Int_table.add rank key (Int_table.length rank));
  rank

let contract nc rank =
  let edges = Array.make (Int_table.length rank) (0, 0, 0) in
  Int_table.iter (fun key i -> edges.(i) <- (key / nc, key mod nc, 1)) rank;
  Graph.of_edge_array ~n:nc edges

let quotient host ~owner nc = contract nc (adjacent_pairs host ~owner nc)

let quotient_graph p =
  let clusters = Array.of_list p.clusters in
  let owner = owners p.host (members_of clusters) and nc = Array.length clusters in
  let rank = adjacent_pairs p.host ~owner nc in
  let witness = Array.make (Int_table.length rank) (-1, -1) in
  iter_joins p.host ~owner nc (fun e key ->
      let i = Int_table.find rank key in
      if fst witness.(i) < 0 then witness.(i) <- (e.u, e.v));
  (contract nc rank, Array.to_list witness)
