type edge = { u : int; v : int; w : int; id : int }

type t = {
  n : int;
  edges : edge array;
  adj : (int * edge) array array; (* adj.(v) = (neighbor, edge) pairs *)
}

let n g = g.n
let m g = Array.length g.edges
let edges g = g.edges
let edge g id = g.edges.(id)
let neighbors g v = g.adj.(v)
let degree g v = Array.length g.adj.(v)

let other_endpoint e v =
  if e.u = v then e.v
  else if e.v = v then e.u
  else invalid_arg "Graph.other_endpoint: vertex not an endpoint"

let of_edge_array ~n:nn arr =
  if nn < 0 then invalid_arg "Graph.of_edge_array: negative n";
  let edges =
    Array.mapi
      (fun id (a, b, w) ->
        if a = b then invalid_arg "Graph.of_edge_array: self-loop";
        if a < 0 || a >= nn || b < 0 || b >= nn then
          invalid_arg "Graph.of_edge_array: endpoint out of range";
        if a < b then { u = a; v = b; w; id } else { u = b; v = a; w; id })
      arr
  in
  let deg = Array.make nn 0 in
  Array.iter
    (fun e ->
      deg.(e.u) <- deg.(e.u) + 1;
      deg.(e.v) <- deg.(e.v) + 1)
    edges;
  let adj = Array.map (fun d -> Array.make d (0, { u = 0; v = 0; w = 0; id = 0 })) deg in
  let fill = Array.make nn 0 in
  Array.iter
    (fun e ->
      adj.(e.u).(fill.(e.u)) <- (e.v, e);
      fill.(e.u) <- fill.(e.u) + 1;
      adj.(e.v).(fill.(e.v)) <- (e.u, e);
      fill.(e.v) <- fill.(e.v) + 1)
    edges;
  (* a parallel edge shows as two equal neighbours side by side once the
     adjacency is sorted *)
  Array.iter
    (fun a ->
      Array.sort (fun ((x : int), _) (y, _) -> Int.compare x y) a;
      for i = 1 to Array.length a - 1 do
        if fst a.(i - 1) = fst a.(i) then invalid_arg "Graph.of_edge_array: duplicate edge"
      done)
    adj;
  { n = nn; edges; adj }

let of_edges ~n es = of_edge_array ~n (Array.of_list es)

let find_edge g a b =
  let a, b = if a < b then (a, b) else (b, a) in
  let arr = g.adj.(a) in
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let x, e = arr.(mid) in
      if x = b then Some e else if x < b then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length arr)

let total_weight g = Array.fold_left (fun acc e -> acc + e.w) 0 g.edges

let has_distinct_weights g =
  let tbl = Int_table.create (m g) in
  Array.for_all
    (fun e ->
      if Int_table.mem tbl e.w then false
      else (
        Int_table.add tbl e.w ();
        true))
    g.edges

let is_connected g =
  if g.n = 0 then true
  else begin
    let visited = Array.make g.n false in
    let stack = Stack.create () in
    Stack.push 0 stack;
    visited.(0) <- true;
    let count = ref 1 in
    while not (Stack.is_empty stack) do
      let v = Stack.pop stack in
      Array.iter
        (fun (u, _) ->
          if not visited.(u) then begin
            visited.(u) <- true;
            incr count;
            Stack.push u stack
          end)
        g.adj.(v)
    done;
    !count = g.n
  end

let subgraph_of_edges g es =
  of_edge_array ~n:g.n (Array.of_list (List.map (fun e -> (e.u, e.v, e.w)) es))

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d" g.n (m g);
  Array.iter (fun e -> Format.fprintf ppf "@,  %d -- %d (w=%d)" e.u e.v e.w) g.edges;
  Format.fprintf ppf "@]"
