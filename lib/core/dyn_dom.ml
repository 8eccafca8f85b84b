open Kdom_graph
open Kdom_congest

(* End-to-end wiring of [Kdom_congest.Dynamic]: builds the union graph and
   churn scenario, computes the initial FastDOM plan, and supplies the two
   centralized callbacks the congest layer cannot implement itself without
   a circular dependency — per-cluster local rebuild (DiamDOM on the
   cluster's BFS tree) and full-recompute pricing (FastDOM_G per surviving
   component).  Shared by [kdom_cli dynamic] and [bench dynamic]. *)

type scenario = {
  union : Graph.t;
  base_n : int;
  k : int;
  plan : Repair.plan;
  centers0 : int list;
  fastdom_rounds : int;
  script : Faults.script;
}

(* ------------------------------------------------------------------ *)
(* callbacks *)

(* Local rebuild of one cluster: per connected component of the induced
   surviving subgraph, run DiamDOM on a BFS spanning tree, then carve the
   members into clusters of the nearest new dominator.  Charged what the
   distributed run would pay: the DiamDOM rounds on each component's tree
   (components rebuild in parallel, so the max, not the sum). *)
let rebuild_cluster g ~k ~plan ~members ~down =
  match members with
  | [] -> 0
  | [ v ] ->
    plan.Repair.dominator.(v) <- v;
    plan.Repair.parent.(v) <- -1;
    plan.Repair.depth.(v) <- 0;
    1
  | _ ->
    (* the members' induced subgraph without the [down] edges *)
    let sub, host_of = Cluster.induced g members in
    let host_id (e : Graph.edge) =
      (Option.get (Graph.find_edge g host_of.(e.u) host_of.(e.v))).id
    in
    let dead = Int_table.create 16 in
    List.iter
      (fun (a, b) ->
        Option.iter
          (fun (e : Graph.edge) -> Int_table.replace dead e.id ())
          (Graph.find_edge g a b))
      down;
    let sub =
      Graph.subgraph_of_edges sub
        (List.filter
           (fun e -> not (Int_table.mem dead (host_id e)))
           (Array.to_list (Graph.edges sub)))
    in
    let comp, ncomp = Traversal.components sub in
    let charged = ref 0 in
    for c = 0 to ncomp - 1 do
      let locals = ref [] in
      Array.iteri (fun v cv -> if cv = c then locals := v :: !locals) comp;
      let locals = List.rev !locals in
      match locals with
      | [] -> ()
      | [ v ] ->
        let h = host_of.(v) in
        plan.Repair.dominator.(h) <- h;
        plan.Repair.parent.(h) <- -1;
        plan.Repair.depth.(h) <- 0;
        charged := max !charged 1
      | _ ->
        let root =
          List.fold_left
            (fun best v -> if host_of.(v) < host_of.(best) then v else best)
            (List.hd locals) locals
        in
        (* BFS spanning tree of this component, renumbered 0..|c|-1 *)
        let idx = Hashtbl.create (List.length locals) in
        List.iteri (fun i v -> Hashtbl.replace idx v i) locals;
        let b = Traversal.bfs sub root in
        let tree_edges =
          List.filter_map
            (fun v ->
              if v = root then None
              else
                Some
                  ( Hashtbl.find idx v,
                    Hashtbl.find idx b.Traversal.parent.(v),
                    1 + Hashtbl.find idx v ))
            locals
        in
        let tree = Graph.of_edges ~n:(List.length locals) tree_edges in
        let res = Diam_dom.run tree ~root:(Hashtbl.find idx root) ~k in
        let centers_local =
          List.map
            (fun i -> List.nth locals i)
            (Diam_dom.dominating_list res)
        in
        (* carve: nearest new dominator inside the surviving subgraph *)
        let mb = Traversal.bfs_multi sub centers_local in
        let dom_of = Array.make (Graph.n sub) (-1) in
        List.iter (fun cl -> dom_of.(cl) <- cl) centers_local;
        Array.iter
          (fun v ->
            if dom_of.(v) < 0 then dom_of.(v) <- dom_of.(mb.Traversal.parent.(v)))
          mb.Traversal.order;
        List.iter
          (fun v ->
            if dom_of.(v) >= 0 then begin
              let h = host_of.(v) in
              plan.Repair.dominator.(h) <- host_of.(dom_of.(v));
              plan.Repair.parent.(h) <-
                (if mb.Traversal.dist.(v) = 0 then -1
                 else host_of.(mb.Traversal.parent.(v)));
              plan.Repair.depth.(h) <- mb.Traversal.dist.(v)
            end)
          locals;
        charged := max !charged res.Diam_dom.rounds
    done;
    !charged

(* Price a from-scratch FastDOM_G recompute of the surviving graph: per
   surviving component (they recompute in parallel — the max is charged),
   a fresh [(k+1, O(k))] construction; tiny components below the FastDOM
   size floor are priced at one BFS (their diameter + 1). *)
let recompute_rounds g ~k ~alive ~down =
  let n = Graph.n g in
  let dead_edge = Hashtbl.create 16 in
  List.iter
    (fun (a, b) -> Hashtbl.replace dead_edge (min a b, max a b) ())
    down;
  let live_nodes = ref [] in
  for v = n - 1 downto 0 do
    if alive.(v) then live_nodes := v :: !live_nodes
  done;
  let live = Array.of_list !live_nodes in
  let nn = Array.length live in
  if nn = 0 then 0
  else begin
    let idx = Hashtbl.create nn in
    Array.iteri (fun i v -> Hashtbl.replace idx v i) live;
    let edges = ref [] in
    let ne = ref 0 in
    Array.iter
      (fun (e : Graph.edge) ->
        if
          alive.(e.Graph.u) && alive.(e.Graph.v)
          && not
               (Hashtbl.mem dead_edge
                  (min e.Graph.u e.Graph.v, max e.Graph.u e.Graph.v))
        then begin
          incr ne;
          (* fresh distinct weights: pricing only needs the topology *)
          edges :=
            (Hashtbl.find idx e.Graph.u, Hashtbl.find idx e.Graph.v, !ne)
            :: !edges
        end)
      (Graph.edges g);
    let sg = Graph.of_edges ~n:nn !edges in
    let comp, ncomp = Traversal.components sg in
    let members = Array.make ncomp [] in
    for v = nn - 1 downto 0 do
      members.(comp.(v)) <- v :: members.(comp.(v))
    done;
    let charged = ref 0 in
    Array.iter
      (fun ms ->
        let size = List.length ms in
        let cost =
          if size <= max 2 (k + 1) then begin
            match ms with
            | [] -> 0
            | v :: _ ->
              let b = Traversal.bfs sg v in
              1
              + List.fold_left
                  (fun a u ->
                    if b.Traversal.dist.(u) < max_int then
                      max a b.Traversal.dist.(u)
                    else a)
                  0 ms
          end
          else begin
            (* weights of [sg] are globally distinct, so the component
               subgraph keeps distinct weights *)
            let csub, _ = Cluster.induced sg ms in
            let res = Fastdom_graph.run csub ~k in
            res.Fastdom_graph.rounds
          end
        in
        charged := max !charged cost)
      members;
    !charged
  end

(* ------------------------------------------------------------------ *)
(* scenario construction *)

let scenario ?(arrivals = 0) ?(insertions = 0) ?(cuts = 0) ?(crashes = 0)
    ?(departs = 0) ?(bursts = 4) ?(quiescence = 12) base ~k ~seed =
  let n0 = Graph.n base and m0 = Graph.m base in
  if n0 < max 2 (k + 1) then
    invalid_arg "Dyn_dom.scenario: base graph below the FastDOM size floor";
  if not (Graph.is_connected base) then
    invalid_arg "Dyn_dom.scenario: base graph must be connected";
  let rng = Rng.create seed in
  let n_union = n0 + arrivals in
  (* base edges keep their topology; weights are re-drawn over the union
     so every edge id gets a distinct weight *)
  let union_pairs = ref [] in
  Array.iter
    (fun (e : Graph.edge) -> union_pairs := (e.Graph.u, e.Graph.v) :: !union_pairs)
    (Graph.edges base);
  let union_pairs = ref (List.rev !union_pairs) in
  let have = Hashtbl.create (m0 + insertions) in
  Array.iter
    (fun (e : Graph.edge) ->
      Hashtbl.replace have
        (min e.Graph.u e.Graph.v, max e.Graph.u e.Graph.v)
        ())
    (Graph.edges base);
  (* arriving nodes: attach each to one or two distinct existing nodes *)
  let arrival_nodes = ref [] in
  for i = 0 to arrivals - 1 do
    let v = n0 + i in
    arrival_nodes := v :: !arrival_nodes;
    let a = Rng.int rng n0 in
    union_pairs := !union_pairs @ [ (a, v) ];
    Hashtbl.replace have (min a v, max a v) ();
    if i land 1 = 1 then begin
      let b = ref (Rng.int rng n0) in
      while !b = a do
        b := Rng.int rng n0
      done;
      union_pairs := !union_pairs @ [ (!b, v) ];
      Hashtbl.replace have (min !b v, max !b v) ()
    end
  done;
  let arrival_nodes = List.rev !arrival_nodes in
  (* reserved insertions: fresh non-edges between existing nodes *)
  let insert_pairs = ref [] in
  let tries = ref 0 in
  while List.length !insert_pairs < insertions && !tries < 200 * (insertions + 1)
  do
    incr tries;
    let a = Rng.int rng n0 and b = Rng.int rng n0 in
    if a <> b && not (Hashtbl.mem have (min a b, max a b)) then begin
      insert_pairs := (min a b, max a b) :: !insert_pairs;
      Hashtbl.replace have (min a b, max a b) ();
      union_pairs := !union_pairs @ [ (min a b, max a b) ]
    end
  done;
  let insert_pairs = List.rev !insert_pairs in
  if List.length insert_pairs < insertions then
    invalid_arg "Dyn_dom.scenario: could not place the requested insertions";
  let ws =
    let m = List.length !union_pairs in
    let pool = Array.init (4 * max 1 m) (fun i -> i + 1) in
    Rng.shuffle rng pool;
    pool
  in
  let union =
    Graph.of_edges ~n:n_union
      (List.mapi (fun i (a, b) -> (a, b, ws.(i))) !union_pairs)
  in
  (* destructive churn targets live on the base graph *)
  let node_perm = Array.init n0 Fun.id in
  Rng.shuffle rng node_perm;
  if crashes + departs > n0 - 1 then
    invalid_arg "Dyn_dom.scenario: too many crashes and departures";
  let crash_nodes = Array.to_list (Array.sub node_perm 0 crashes) in
  let depart_nodes = Array.to_list (Array.sub node_perm crashes departs) in
  let eids = Array.init m0 Fun.id in
  Rng.shuffle rng eids;
  if cuts > m0 then invalid_arg "Dyn_dom.scenario: more cuts than base edges";
  let cut_pairs =
    List.init cuts (fun i ->
        let e = Graph.edge base eids.(i) in
        (e.Graph.u, e.Graph.v))
  in
  (* the initial plan: FastDOM over the base part of the union graph (so
     plan tree edges are union edges), joiner sentinel for the reserved
     nodes *)
  let base' =
    Graph.of_edges ~n:n0
      (List.filteri (fun i _ -> i < m0) !union_pairs
      |> List.mapi (fun i (a, b) -> (a, b, ws.(i))))
  in
  let fd = Fastdom_graph.run base' ~k in
  let p = Cluster.plan_of_partition fd.Fastdom_graph.partition in
  let pad a x = Array.append a (Array.make arrivals x) in
  let plan =
    Repair.
      { dominator = pad p.dominator (-1); parent = pad p.parent (-1); depth = pad p.depth 0 }
  in
  let script =
    Faults.churn_script union ~seed:(seed + 1) ~bursts ~quiescence
      ~arrivals:arrival_nodes ~insertions:insert_pairs ~cuts:cut_pairs
      ~crashes:crash_nodes ~departs:depart_nodes ()
  in
  {
    union;
    base_n = n0;
    k;
    plan;
    centers0 = List.sort compare fd.Fastdom_graph.dominating;
    fastdom_rounds = fd.Fastdom_graph.rounds;
    script;
  }

(* ------------------------------------------------------------------ *)
(* end-to-end run *)

let default_config sc =
  let k = sc.k in
  let beta = max 2 (k + 1) in
  let lease = 2 in
  let dmax = Repair.default_dmax sc.plan in
  let settle = (2 * ((lease * beta) + (3 * dmax) + 12)) + (2 * k) in
  let bound = max (2 * dmax) ((4 * k) + 4) in
  Dynamic.{ plan = sc.plan; beta; lease; dmax; settle; bound }

let run ?config sc =
  let cfg = match config with Some c -> c | None -> default_config sc in
  Dynamic.run
    ~rebuild:(fun ~plan ~members ~down ->
      rebuild_cluster sc.union ~k:sc.k ~plan ~members ~down)
    ~recompute:(fun ~alive ~down ->
      recompute_rounds sc.union ~k:sc.k ~alive ~down)
    sc.union cfg sc.script
