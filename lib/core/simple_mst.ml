open Kdom_graph

type fragment = {
  root : int;
  members : int list;
  tree_edges : Graph.edge list;
  depth : int;
}

type result = {
  fragments : fragment list;
  rounds : int;
  phases : int;
  ledger : Ledger.t;
}

let phases_for k = max 1 (Log_star.ceil_log2 (k + 1))

let round_bound ~k =
  let p = phases_for k in
  let rec go i acc = if i > p then acc else go (i + 1) (acc + (5 * (1 lsl i)) + 2) in
  go 1 0

(* Depth of the fragment tree from its root, following tree edges only. *)
let tree_depth root members tree_edges =
  let adj = Hashtbl.create (List.length members) in
  let add a b =
    Hashtbl.replace adj a (b :: Option.value ~default:[] (Hashtbl.find_opt adj a))
  in
  List.iter (fun (e : Graph.edge) -> add e.u e.v; add e.v e.u) tree_edges;
  let dist = Hashtbl.create (List.length members) in
  Hashtbl.replace dist root 0;
  let q = Queue.create () in
  Queue.add root q;
  let maxd = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let d = Hashtbl.find dist v in
    maxd := max !maxd d;
    List.iter
      (fun u ->
        if not (Hashtbl.mem dist u) then begin
          Hashtbl.replace dist u (d + 1);
          Queue.add u q
        end)
      (Option.value ~default:[] (Hashtbl.find_opt adj v))
  done;
  List.iter
    (fun v ->
      if not (Hashtbl.mem dist v) then
        invalid_arg "Simple_mst: fragment tree does not span its members")
    members;
  !maxd

(* Adjacency of the tree edges [tre.(0 .. nt-1)] (edge ids of [g]),
   written into [off] (length n + 1), [fill] (length n) and [nbr] (length
   at least 2 nt): the neighbours of [v] are [nbr.(off.(v) .. off.(v+1)-1)]. *)
let tree_adjacency g tre nt ~off ~fill ~nbr =
  let n = Graph.n g in
  Array.fill off 0 (n + 1) 0;
  for j = 0 to nt - 1 do
    let e = Graph.edge g tre.(j) in
    off.(e.u + 1) <- off.(e.u + 1) + 1;
    off.(e.v + 1) <- off.(e.v + 1) + 1
  done;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  Array.blit off 0 fill 0 n;
  for j = 0 to nt - 1 do
    let e = Graph.edge g tre.(j) in
    nbr.(fill.(e.u)) <- e.v;
    fill.(e.u) <- fill.(e.u) + 1;
    nbr.(fill.(e.v)) <- e.u;
    fill.(e.v) <- fill.(e.v) + 1
  done

(* Eccentricity of [root] in the tree adjacency [off]/[nbr], by BFS.  [dist] is -1
   on every node and is left so; [queue] has room for the fragment.
   Returns the depth and the number of nodes reached. *)
let bfs_depth ~off ~nbr ~dist ~queue root =
  dist.(root) <- 0;
  queue.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    for j = off.(v) to off.(v + 1) - 1 do
      let u = nbr.(j) in
      if dist.(u) < 0 then begin
        dist.(u) <- dist.(v) + 1;
        queue.(!tail) <- u;
        incr tail
      end
    done
  done;
  let depth = dist.(queue.(!tail - 1)) in
  for j = 0 to !tail - 1 do
    dist.(queue.(j)) <- -1
  done;
  (depth, !tail)

let run ?trace g ~k =
  if k < 1 then invalid_arg "Simple_mst.run: k must be >= 1";
  if not (Graph.is_connected g) then invalid_arg "Simple_mst.run: graph must be connected";
  if not (Graph.has_distinct_weights g) then
    invalid_arg "Simple_mst.run: edge weights must be distinct";
  let n = Graph.n g in
  let edges = Graph.edges g in
  let ledger = Ledger.create () in
  let phases = phases_for k in
  (* The fragments, on flat arrays: fragment [f] is rooted at [root.(f)],
     has depth [depth.(f)], members [mem.(ms.(f) .. ms.(f+1)-1)] and tree
     edges (ids) [tre.(ts.(f) .. ts.(f+1)-1)], each in the order of its
     {!fragment} list.  They start as the singletons.  A phase writes the
     next members and tree edges into the spare buffers [mem'] and [tre']
     and then swaps them in. *)
  let nf = ref n in
  let root = ref (Array.init n Fun.id) and depth = ref (Array.make n 0) in
  let mem = ref (Array.init n Fun.id) and ms = ref (Array.init (n + 1) Fun.id) in
  let tre = ref (Array.make (max 0 (n - 1)) 0) and ts = ref (Array.make (n + 1) 0) in
  let mem' = ref (Array.make n 0) and tre' = ref (Array.make (max 0 (n - 1)) 0) in
  let frag_of = Array.init n Fun.id in
  (* the depth searches' scratch: the tree adjacency, and [dist], which is
     -1 between searches *)
  let off = Array.make (n + 1) 0 and fill = Array.make n 0 in
  let nbr = Array.make (2 * max 0 (n - 1)) 0 in
  let dist = Array.make n (-1) and queue = Array.make n 0 in
  for i = 1 to phases do
    Kdom_congest.Trace.span_opt trace (Printf.sprintf "simple_mst.phase[%d]" i)
    @@ fun () ->
    let cap = 1 lsl i in
    let nf0 = !nf and root0 = !root and depth0 = !depth in
    let mem0 = !mem and ms0 = !ms and tre0 = !tre and ts0 = !ts in
    (* id of the minimum-weight outgoing edge of every active fragment, -1
       for none *)
    let mwoe = Array.make nf0 (-1) in
    let offer f (e : Graph.edge) =
      if depth0.(f) <= cap && (mwoe.(f) < 0 || edges.(mwoe.(f)).w > e.w) then mwoe.(f) <- e.id
    in
    Array.iter
      (fun (e : Graph.edge) ->
        let fu = frag_of.(e.u) and fv = frag_of.(e.v) in
        if fu <> fv then begin
          offer fu e;
          offer fv e
        end)
      edges;
    (* the fragment at the other end of [f]'s wish *)
    let target f =
      let e = edges.(mwoe.(f)) in
      let fu = frag_of.(e.u) in
      if fu = f then frag_of.(e.v) else fu
    in
    (* merge groups: weak components of the wish-pointer graph *)
    let uf = Union_find.create nf0 in
    for f = 0 to nf0 - 1 do
      if mwoe.(f) >= 0 then ignore (Union_find.union uf f (target f))
    done;
    (* gather groups; the new fragments are listed in the reverse of the
       table's iteration order *)
    let groups = Hashtbl.create 16 in
    for f = 0 to nf0 - 1 do
      let r = Union_find.find uf f in
      Hashtbl.replace groups r (f :: Option.value ~default:[] (Hashtbl.find_opt groups r))
    done;
    let order = Array.of_list (Hashtbl.fold (fun _ group acc -> group :: acc) groups []) in
    let nf1 = Array.length order in
    let root1 = Array.make nf1 0 and depth1 = Array.make nf1 0 in
    let mem1 = !mem' and ms1 = Array.make (nf1 + 1) 0 in
    let tre1 = !tre' and ts1 = Array.make (nf1 + 1) 0 in
    let mfill = ref 0 and tfill = ref 0 in
    let append f =
      let len = ms0.(f + 1) - ms0.(f) in
      Array.blit mem0 ms0.(f) mem1 !mfill len;
      mfill := !mfill + len;
      let len = ts0.(f + 1) - ts0.(f) in
      Array.blit tre0 ts0.(f) tre1 !tfill len;
      tfill := !tfill + len
    in
    Array.iteri
      (fun idx group ->
        (match group with
        | [ lone ] ->
          root1.(idx) <- root0.(lone);
          depth1.(idx) <- depth0.(lone);
          append lone
        | _ ->
          (* the new root: the unique sink (a fragment with no wish), or the
             higher-id endpoint of the unique mutually chosen edge *)
          let sinks = List.filter (fun f -> mwoe.(f) < 0) group in
          root1.(idx) <-
            (match sinks with
            | [ s ] -> root0.(s)
            | [] ->
              let mutual = ref (-1) in
              List.iter
                (fun f ->
                  if mwoe.(target f) = mwoe.(f) then begin
                    let e = edges.(mwoe.(f)) in
                    mutual := max e.u e.v
                  end)
                group;
              if !mutual = -1 then
                invalid_arg "Simple_mst: merge group without sink or mutual edge";
              !mutual
            | _ -> invalid_arg "Simple_mst: merge group with several sinks");
          List.iter append group;
          (* the chosen edges, after the inherited ones, in id order *)
          List.filter_map (fun f -> if mwoe.(f) < 0 then None else Some mwoe.(f)) group
          |> List.sort_uniq Int.compare
          |> List.iter (fun id ->
                 tre1.(!tfill) <- id;
                 incr tfill));
        ms1.(idx + 1) <- !mfill;
        ts1.(idx + 1) <- !tfill)
      order;
    tree_adjacency g tre1 !tfill ~off ~fill ~nbr;
    Array.iteri
      (fun idx group ->
        match group with
        | [ _ ] -> ()
        | _ ->
          let d, reached = bfs_depth ~off ~nbr ~dist ~queue root1.(idx) in
          if reached <> ms1.(idx + 1) - ms1.(idx) then
            invalid_arg "Simple_mst: fragment tree does not span its members";
          depth1.(idx) <- d)
      order;
    for idx = 0 to nf1 - 1 do
      for j = ms1.(idx) to ms1.(idx + 1) - 1 do
        frag_of.(mem1.(j)) <- idx
      done
    done;
    nf := nf1;
    root := root1;
    depth := depth1;
    mem' := mem0;
    mem := mem1;
    ms := ms1;
    tre' := tre0;
    tre := tre1;
    ts := ts1;
    let phase_rounds = (5 * (1 lsl i)) + 2 in
    Ledger.charge ledger (Printf.sprintf "phase %d" i) phase_rounds;
    Kdom_congest.Trace.charge_opt trace phase_rounds
  done;
  let segment arr lo hi f = List.init (hi - lo) (fun j -> f arr.(lo + j)) in
  let fragment f =
    {
      root = !root.(f);
      members = segment !mem !ms.(f) !ms.(f + 1) Fun.id;
      tree_edges = segment !tre !ts.(f) !ts.(f + 1) (Graph.edge g);
      depth = !depth.(f);
    }
  in
  {
    fragments = List.init !nf fragment;
    rounds = Ledger.total ledger;
    phases;
    ledger;
  }

let spanning_forest_edges r = List.concat_map (fun f -> f.tree_edges) r.fragments

let fragment_of_array g r =
  let owner = Array.make (Graph.n g) (-1) in
  List.iteri (fun i f -> List.iter (fun v -> owner.(v) <- i) f.members) r.fragments;
  owner
