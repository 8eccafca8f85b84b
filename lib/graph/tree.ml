type t = {
  graph : Graph.t;
  root : int;
  parent : int array;
  parent_edge : int array;
  children : int array array;
  depth : int array;
  height : int;
}

let is_forest g =
  let uf = Union_find.create (Graph.n g) in
  Array.for_all (fun (e : Graph.edge) -> Union_find.union uf e.u e.v) (Graph.edges g)

let is_tree g = Graph.n g > 0 && Graph.m g = Graph.n g - 1 && Graph.is_connected g

let root_component_at g r =
  let b = Traversal.bfs g r in
  let n = Graph.n g in
  let depth = Array.make n (-1) in
  let child_count = Array.make n 0 in
  Array.iter
    (fun v ->
      depth.(v) <- b.dist.(v);
      if b.parent.(v) >= 0 then child_count.(b.parent.(v)) <- child_count.(b.parent.(v)) + 1)
    b.order;
  (* A BFS from r visits every component node along exactly one edge iff the
     component is acyclic; check it. *)
  let comp_nodes = Array.length b.order in
  let comp_edges = Array.fold_left (fun acc v -> acc + Graph.degree g v) 0 b.order / 2 in
  if comp_edges <> comp_nodes - 1 then
    invalid_arg "Tree.root_component_at: component contains a cycle";
  let children = Array.map (fun c -> Array.make c (-1)) child_count in
  let fill = Array.make n 0 in
  Array.iter
    (fun v ->
      let p = b.parent.(v) in
      if p >= 0 then begin
        children.(p).(fill.(p)) <- v;
        fill.(p) <- fill.(p) + 1
      end)
    b.order;
  let height = Array.fold_left (fun acc v -> max acc depth.(v)) 0 b.order in
  { graph = g; root = r; parent = b.parent; parent_edge = b.parent_edge; children; depth; height }

let root_at g r =
  if not (is_tree g) then invalid_arg "Tree.root_at: graph is not a tree";
  root_component_at g r

let nodes t =
  let acc = ref [] in
  for v = Array.length t.depth - 1 downto 0 do
    if t.depth.(v) >= 0 then acc := v :: !acc
  done;
  !acc

let size t =
  Array.fold_left (fun acc d -> if d >= 0 then acc + 1 else acc) 0 t.depth

let bottom_up t =
  let b = Traversal.bfs t.graph t.root in
  let arr = Array.copy b.order in
  let n = Array.length arr in
  for i = 0 to (n / 2) - 1 do
    let tmp = arr.(i) in
    arr.(i) <- arr.(n - 1 - i);
    arr.(n - 1 - i) <- tmp
  done;
  arr

let subtree_sizes t =
  let sizes = Array.make (Graph.n t.graph) 0 in
  Array.iter
    (fun v ->
      sizes.(v) <- 1 + Array.fold_left (fun acc c -> acc + sizes.(c)) 0 t.children.(v))
    (bottom_up t);
  sizes

let leaves t =
  List.filter (fun v -> Array.length t.children.(v) = 0) (nodes t)

let path_to_root t v =
  let rec go v acc = if v = -1 then List.rev acc else go t.parent.(v) (v :: acc) in
  if t.depth.(v) < 0 then invalid_arg "Tree.path_to_root: node outside component";
  go v []
