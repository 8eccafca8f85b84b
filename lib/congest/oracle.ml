open Kdom_graph

type failure = { check : string; detail : string }

let describe = function
  | [] -> "ok"
  | fs ->
    String.concat "\n"
      (List.map (fun f -> Printf.sprintf "%s: %s" f.check f.detail) fs)

let expect_ok what = function
  | [] -> ()
  | fs -> failwith (Printf.sprintf "oracle failed for %s:\n%s" what (describe fs))

let fail check fmt = Printf.ksprintf (fun detail -> [ { check; detail } ]) fmt

(* Multi-source BFS from the centers; [-1] = unreachable. *)
let distances_to_centers g centers =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  List.iter
    (fun c ->
      if c < 0 || c >= n then invalid_arg "Oracle: center outside the node range";
      if dist.(c) < 0 then begin
        dist.(c) <- 0;
        Queue.add c q
      end)
    centers;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun (u, _) ->
        if dist.(u) < 0 then begin
          dist.(u) <- dist.(v) + 1;
          Queue.add u q
        end)
      (Graph.neighbors g v)
  done;
  dist

let radius_within g ~centers ~bound =
  let check = "radius" in
  if centers = [] then
    if Graph.n g = 0 then [] else fail check "empty center set on %d nodes" (Graph.n g)
  else begin
    let dist = distances_to_centers g centers in
    let unreachable = ref (-1) and radius = ref 0 and worst = ref (List.hd centers) in
    Array.iteri
      (fun v d ->
        if d < 0 then begin
          if !unreachable < 0 then unreachable := v
        end
        else if d > !radius then begin
          radius := d;
          worst := v
        end)
      dist;
    if !unreachable >= 0 then
      fail check "node %d unreachable from every center" !unreachable
    else if !radius > bound then
      fail check "coverage radius %d > bound %d (witness node %d)" !radius bound
        !worst
    else []
  end

let k_domination g ~k centers =
  List.map
    (fun f -> { f with check = "k-domination" })
    (radius_within g ~centers ~bound:k)

(* Domination of the churned graph: only surviving nodes, only edges with
   both directions up and both endpoints alive, judged per surviving
   component.  [extra] adds undirected edges absent from [g] (capacity
   brought online by [Engine.Churn] Edge_add events); they obey the same
   [alive]/[dead_edges] filters as base edges. *)
let eventual_k_domination ?(extra = []) g ~alive ~dead_edges ~centers ~bound =
  let check = "eventual-k-domination" in
  let n = Graph.n g in
  if Array.length alive <> n then
    fail check "alive mask covers %d of %d nodes" (Array.length alive) n
  else begin
    let dead = Hashtbl.create 16 in
    List.iter
      (fun (s, d) -> Hashtbl.replace dead (min s d, max s d) ())
      dead_edges;
    let extra_adj = Array.make (max 1 n) [] in
    List.iter
      (fun (a, b) ->
        if a < 0 || a >= n || b < 0 || b >= n then
          invalid_arg "Oracle: extra edge endpoint outside the node range";
        extra_adj.(a) <- b :: extra_adj.(a);
        extra_adj.(b) <- a :: extra_adj.(b))
      extra;
    let usable v u =
      alive.(v) && alive.(u) && not (Hashtbl.mem dead (min v u, max v u))
    in
    let iter_nbrs v f =
      Array.iter (fun (u, _) -> f u) (Graph.neighbors g v);
      List.iter f extra_adj.(v)
    in
    let bfs dist seeds =
      let q = Queue.create () in
      List.iter
        (fun (c, d0) ->
          if dist.(c) < 0 then begin
            dist.(c) <- d0;
            Queue.add c q
          end)
        seeds;
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        iter_nbrs v (fun u ->
            if usable v u && dist.(u) < 0 then begin
              dist.(u) <- dist.(v) + 1;
              Queue.add u q
            end)
      done
    in
    List.iter
      (fun c ->
        if c < 0 || c >= n then invalid_arg "Oracle: center outside the node range")
      centers;
    let live_centers = List.filter (fun c -> alive.(c)) centers in
    let dist = Array.make n (-1) in
    bfs dist (List.map (fun c -> (c, 0)) live_centers);
    (* label surviving components to tell "no live dominator in this
       component" from "too far from every live dominator" *)
    let comp = Array.make n (-1) in
    let q = Queue.create () in
    for v0 = 0 to n - 1 do
      if alive.(v0) && comp.(v0) < 0 then begin
        comp.(v0) <- v0;
        Queue.add v0 q;
        while not (Queue.is_empty q) do
          let v = Queue.pop q in
          iter_nbrs v (fun u ->
              if usable v u && comp.(u) < 0 then begin
                comp.(u) <- v0;
                Queue.add u q
              end)
        done
      end
    done;
    let fs = ref [] in
    let orphaned_comp = Hashtbl.create 4 in
    for v = 0 to n - 1 do
      if alive.(v) then
        if dist.(v) < 0 then begin
          if not (Hashtbl.mem orphaned_comp comp.(v)) then begin
            Hashtbl.replace orphaned_comp comp.(v) ();
            fs :=
              fail check
                "surviving component of node %d has no live dominator" v
              :: !fs
          end
        end
        else if dist.(v) > bound then
          fs :=
            fail check
              "node %d at distance %d > bound %d from every live dominator" v
              dist.(v) bound
            :: !fs
    done;
    List.concat (List.rev !fs)
  end

let size_within ~n ~k ?(ceil = false) centers =
  let bound =
    if ceil then Domination.size_bound_ceil ~n ~k else Domination.size_bound ~n ~k
  in
  let size = List.length centers in
  if size <= bound then []
  else
    fail "size" "|D| = %d exceeds %s bound %d (n = %d, k = %d)" size
      (if ceil then "ceil" else "floor")
      bound n k

let bfs_tree g ~root ~parent ~depth =
  let check = "bfs-tree" in
  let n = Graph.n g in
  if Array.length parent <> n || Array.length depth <> n then
    fail check "parent/depth arrays do not cover the %d nodes" n
  else begin
    let dist = Traversal.distances_from g root in
    let fs = ref [] in
    let add f = fs := f :: !fs in
    if parent.(root) <> -1 then
      add (fail check "root %d has parent %d" root parent.(root));
    if depth.(root) <> 0 then add (fail check "root depth = %d" depth.(root));
    for v = 0 to n - 1 do
      if depth.(v) <> dist.(v) then
        add
          (fail check "node %d: depth %d but BFS distance %d" v depth.(v) dist.(v));
      if v <> root then begin
        let p = parent.(v) in
        if p < 0 || p >= n then add (fail check "node %d: parent %d invalid" v p)
        else begin
          if Option.is_none (Graph.find_edge g v p) then
            add (fail check "node %d: parent %d is not a neighbor" v p);
          if p >= 0 && p < n && depth.(v) <> dist.(p) + 1 then
            add
              (fail check "node %d at depth %d under parent %d at distance %d" v
                 depth.(v) p dist.(p))
        end
      end
    done;
    List.concat (List.rev !fs)
  end

let proper_coloring g ~palette colors =
  let check = "coloring" in
  let fs = ref [] in
  Array.iteri
    (fun v c ->
      if c < 0 || c >= palette then
        fs := fail check "node %d: color %d outside [0, %d)" v c palette :: !fs)
    colors;
  Array.iter
    (fun (e : Graph.edge) ->
      if colors.(e.u) = colors.(e.v) then
        fs :=
          fail check "edge (%d, %d): both endpoints colored %d" e.u e.v
            colors.(e.u)
          :: !fs)
    (Graph.edges g);
  List.concat (List.rev !fs)

let agreement ~expected values =
  let fs = ref [] in
  Array.iteri
    (fun v x ->
      if x <> expected then
        fs := fail "agreement" "node %d decided %d, expected %d" v x expected :: !fs)
    values;
  List.concat (List.rev !fs)

let mst_ids g =
  if not (Graph.has_distinct_weights g) then
    invalid_arg "Oracle: MST oracles require distinct weights";
  let ids = Hashtbl.create 64 in
  List.iter (fun (e : Graph.edge) -> Hashtbl.replace ids e.id ()) (Mst.kruskal g);
  ids

let mst_subforest g edge_ids =
  let check = "mst-subforest" in
  let in_mst = mst_ids g in
  let uf = Union_find.create (Graph.n g) in
  let fs = ref [] in
  List.iter
    (fun id ->
      if id < 0 || id >= Graph.m g then
        fs := fail check "edge id %d outside the graph" id :: !fs
      else begin
        let e = Graph.edge g id in
        if not (Hashtbl.mem in_mst id) then
          fs :=
            fail check "edge %d (%d-%d, w=%d) is not an MST edge" id e.u e.v e.w
            :: !fs;
        if Union_find.find uf e.u = Union_find.find uf e.v then
          fs := fail check "edge %d (%d-%d) closes a cycle" id e.u e.v :: !fs
        else ignore (Union_find.union uf e.u e.v)
      end)
    edge_ids;
  List.concat (List.rev !fs)

let partition g ~fragment_of ~min_size =
  let check = "partition" in
  let n = Graph.n g in
  if Array.length fragment_of <> n then
    fail check "fragment_of covers %d of %d nodes" (Array.length fragment_of) n
  else begin
    let fs = ref [] in
    let members = Hashtbl.create 16 in
    Array.iteri
      (fun v f ->
        if f < 0 then fs := fail check "node %d has no fragment" v :: !fs
        else
          Hashtbl.replace members f
            (v :: Option.value ~default:[] (Hashtbl.find_opt members f)))
      fragment_of;
    let frags =
      Hashtbl.fold (fun f ms acc -> (f, ms) :: acc) members []
      |> List.sort compare
    in
    List.iter
      (fun (f, ms) ->
        let size = List.length ms in
        if size < min_size then
          fs := fail check "fragment %d has %d < %d members" f size min_size :: !fs;
        (* connectivity of the induced subgraph *)
        let seen = Hashtbl.create size in
        let q = Queue.create () in
        let start = List.hd ms in
        Hashtbl.replace seen start ();
        Queue.add start q;
        while not (Queue.is_empty q) do
          let v = Queue.pop q in
          Array.iter
            (fun (u, _) ->
              if fragment_of.(u) = f && not (Hashtbl.mem seen u) then begin
                Hashtbl.replace seen u ();
                Queue.add u q
              end)
            (Graph.neighbors g v)
        done;
        if Hashtbl.length seen <> size then
          fs :=
            fail check "fragment %d is disconnected (%d of %d reached)" f
              (Hashtbl.length seen) size
            :: !fs)
      frags;
    List.concat (List.rev !fs)
  end

let inter_fragment_mst g ~fragment_of selected =
  let check = "inter-fragment-mst" in
  if not (Graph.has_distinct_weights g) then
    invalid_arg "Oracle: MST oracles require distinct weights";
  let nf = 1 + Array.fold_left max (-1) fragment_of in
  let candidates =
    Array.to_list (Graph.edges g)
    |> List.filter_map (fun (e : Graph.edge) ->
           let fu = fragment_of.(e.u) and fv = fragment_of.(e.v) in
           if fu <> fv then Some (fu, fv, e.w, e.id) else None)
    |> List.sort (fun (_, _, w1, _) (_, _, w2, _) -> compare w1 w2)
  in
  let expected = List.sort compare (Mst.mst_of_multigraph ~n:nf candidates) in
  let got = List.sort compare selected in
  if expected = got then []
  else
    fail check "selected %d edges %s, expected %d edges %s" (List.length got)
      (String.concat "," (List.map string_of_int got))
      (List.length expected)
      (String.concat "," (List.map string_of_int expected))
