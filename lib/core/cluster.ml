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

let cluster_of_array p =
  let owner = Array.make (Graph.n p.host) (-1) in
  List.iteri (fun i c -> List.iter (fun v -> owner.(v) <- i) c.members) p.clusters;
  owner

let centers p = List.map (fun c -> c.center) p.clusters

(* BFS from the center restricted to the member set, calling [visit u v]
   when it reaches [u] from [v].  Every member maps to its distance, or to
   -1 when the BFS does not reach it. *)
let restricted_bfs host c visit =
  let dist = Int_table.create 16 in
  List.iter (fun v -> Int_table.replace dist v (-1)) c.members;
  Int_table.replace dist c.center 0;
  let queue = Array.make (Int_table.length dist) c.center in
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let dv = Int_table.find dist v in
    Array.iter
      (fun (u, _) ->
        match Int_table.find_opt dist u with
        | Some -1 ->
          Int_table.replace dist u (dv + 1);
          visit u v;
          queue.(!tail) <- u;
          incr tail
        | _ -> ())
      (Graph.neighbors host v)
  done;
  dist

let restricted_distances host c = restricted_bfs host c (fun _ _ -> ())

let radius host c =
  let dist = restricted_distances host c in
  List.fold_left
    (fun acc v ->
      let d = Int_table.find dist v in
      if d < 0 then invalid_arg "Cluster.radius: induced subgraph disconnected";
      max acc d)
    0 c.members

let induced_connected host c =
  let dist = restricted_distances host c in
  List.for_all (fun v -> Int_table.find dist v >= 0) c.members

let max_radius p = List.fold_left (fun acc c -> max acc (radius p.host c)) 0 p.clusters

let min_size p =
  match p.clusters with
  | [] -> 0
  | cs -> List.fold_left (fun acc c -> min acc (size c)) max_int cs

let write_tree host c ~parent ~depth =
  parent.(c.center) <- -1;
  depth.(c.center) <- 0;
  let dist =
    restricted_bfs host c (fun u v ->
        parent.(u) <- v;
        depth.(u) <- depth.(v) + 1)
  in
  List.iter
    (fun v ->
      if Int_table.find dist v < 0 then
        invalid_arg "Cluster.write_tree: induced subgraph disconnected")
    c.members

let plan_of_partition p =
  let n = Graph.n p.host in
  let dominator = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let depth = Array.make n 0 in
  List.iter
    (fun c ->
      List.iter (fun v -> dominator.(v) <- c.center) c.members;
      write_tree p.host c ~parent ~depth)
    p.clusters;
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

let quotient_graph p =
  let owner = cluster_of_array p in
  let k = List.length p.clusters in
  let seen = Hashtbl.create 16 in
  let pairs = ref [] in
  let witnesses = ref [] in
  Array.iter
    (fun (e : Graph.edge) ->
      let a = owner.(e.u) and b = owner.(e.v) in
      if a <> b then begin
        let key = if a < b then (a, b) else (b, a) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          pairs := (fst key, snd key, 1) :: !pairs;
          witnesses := (e.u, e.v) :: !witnesses
        end
      end)
    (Graph.edges p.host);
  (Graph.of_edges ~n:k (List.rev !pairs), List.rev !witnesses)
