open Kdom_graph
open Kdom_congest

type result = {
  mst : Graph.edge list;
  k : int;
  fragments : Simple_mst.fragment list;
  dominating : int list;
  pipeline : Pipeline.result;
  root : int;
  bfs_stats : Engine.stats;
  ledger : Ledger.t;
  rounds : int;
}

let isqrt_ceil n =
  let rec go k = if k * k >= n then k else go (k + 1) in
  go 1

let run_with ?small ?trace g ~(bfs : Bfs_tree.info) ~tree_stage_label ~tree_stage_stats =
  let k = isqrt_ceil (Graph.n g) in
  let dom = Fastdom_graph.run ?small ?trace g ~k in
  let ledger = Ledger.create () in
  Ledger.charge ledger "FastDOM_G (k = ceil sqrt n)" dom.rounds;
  let fragment_of = Simple_mst.fragment_of_array g dom.forest in
  let (bfs_stats : Engine.stats) = tree_stage_stats in
  Ledger.charge ledger tree_stage_label bfs_stats.rounds;
  let pipe = Pipeline.run ?trace g ~bfs ~fragment_of in
  Ledger.charge ledger "Pipeline upcast" pipe.upcast_stats.rounds;
  Ledger.charge ledger "Result broadcast" pipe.broadcast_rounds;
  let mst =
    Simple_mst.spanning_forest_edges dom.forest @ pipe.selected
    |> List.sort (fun (a : Graph.edge) b -> compare a.id b.id)
  in
  {
    mst;
    k;
    fragments = dom.fragments;
    dominating = dom.dominating;
    pipeline = pipe;
    root = bfs.root;
    bfs_stats;
    ledger;
    rounds = Ledger.total ledger;
  }

let run ?(root = 0) ?small ?trace g =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Fast_mst.run: empty graph";
  if root < 0 || root >= n then
    invalid_arg (Printf.sprintf "Fast_mst.run: root %d out of range [0, %d)" root n);
  Trace.span_opt trace "fast_mst" @@ fun () ->
  let bfs, bfs_stats = Bfs_tree.run ?trace g ~root in
  run_with ?small ?trace g ~bfs ~tree_stage_label:"BFS tree" ~tree_stage_stats:bfs_stats

let run_elected ?small ?trace g =
  if Graph.n g = 0 then invalid_arg "Fast_mst.run_elected: empty graph";
  Trace.span_opt trace "fast_mst" @@ fun () ->
  let elected = Leader.elect ?trace g in
  let bfs =
    Bfs_tree.of_parents g ~root:elected.leader ~parent:elected.parent
      ~depth:elected.depth
  in
  run_with ?small ?trace g ~bfs ~tree_stage_label:"Leader election + BFS tree"
    ~tree_stage_stats:elected.stats

let round_bound ~n ~diam =
  let s = isqrt_ceil n in
  (80 * (s + 1) * (max 1 (Log_star.log_star n) + 20)) + (8 * diam) + 40
