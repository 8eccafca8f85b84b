(* The paper's pipelines re-composed from their layers' public functions,
   in the order [Fast_mst.run_elected], [Fastdom_graph.run] and
   [Fastdom_tree.run] call them, with a wall-clock span around every
   call.  Each layer also gets the library's own [?trace], so wire bits and
   delivered messages come from the same run.  The work done is the work
   the monolithic call does: the benchmark fails a run whose re-composed
   output differs from the monolithic one. *)

open Kdom_graph
open Kdom_congest
open Kdom

type counts = {
  mutable bits : int;  (* measured wire bits delivered, all layers *)
  mutable delivered : int;  (* messages delivered, all layers *)
  minor : (string, float) Hashtbl.t;  (* minor words allocated, per span *)
}

let counts () = { bits = 0; delivered = 0; minor = Hashtbl.create 8 }

(* [f trace] inside a span named [name]; the trace is reduced to its bit
   and message totals in a separate span, so the reduction's cost shows
   as tracing, not as the caller's self time. *)
let layer sp c name f =
  let tr = Trace.create () in
  let r =
    Spans.span sp name (fun () ->
        let w0 = Gc.minor_words () in
        let r = f tr in
        let w = Gc.minor_words () -. w0 in
        Hashtbl.replace c.minor name
          (w +. Option.value ~default:0. (Hashtbl.find_opt c.minor name));
        r)
  in
  Spans.span sp "trace.report" (fun () ->
      let m = Metrics.report tr in
      c.bits <- c.bits + m.bits;
      c.delivered <- c.delivered + m.delivered);
  r

type dom = {
  dominating : int list;
  partition : Cluster.partition;
  forest : Simple_mst.result;
  rounds : int;
}

(* [Fastdom_tree.run] with the default variant and stage. *)
let fastdom_tree sp c g ~k =
  Spans.span sp "fastdom_t" @@ fun () ->
  if not (Tree.is_tree g) then invalid_arg "Decompose.fastdom_tree: not a tree";
  let n = Graph.n g in
  let clusters, ledger =
    if n < max 2 (k + 1) then ([ Forest.make g ~center:0 (List.init n Fun.id) ], Ledger.create ())
    else
      let r = layer sp c "dom_partition" (fun trace -> Dom_partition.run ~trace g ~k) in
      (r.clusters, r.ledger)
  in
  let dominating = ref [] and final = ref [] and diam_rounds = ref 0 in
  List.iter
    (fun (cl : Forest.cluster) ->
      let sub, to_host = Spans.span sp "cluster" (fun () -> Cluster.induced g cl.members) in
      let root =
        let r = ref (-1) in
        Array.iteri (fun i v -> if v = cl.center then r := i) to_host;
        !r
      in
      let dd = layer sp c "diam_dom" (fun trace -> Diam_dom.run ~trace sub ~root ~k) in
      let local = Diam_dom.dominating_list dd in
      diam_rounds := max !diam_rounds dd.rounds;
      List.iter (fun v -> dominating := to_host.(v) :: !dominating) local;
      let owner = Domination.dominator_assignment sub local in
      let groups = Hashtbl.create 8 in
      Array.iteri
        (fun v o ->
          Hashtbl.replace groups o
            (to_host.(v) :: Option.value ~default:[] (Hashtbl.find_opt groups o)))
        owner;
      Hashtbl.iter
        (fun o members -> final := ({ center = to_host.(o); members } : Cluster.t) :: !final)
        groups)
    clusters;
  ( List.sort compare !dominating,
    Cluster.partition g !final,
    Ledger.total ledger + !diam_rounds )

(* [Fastdom_graph.run g ~k]. *)
let fastdom_graph sp c g ~k =
  Spans.span sp "fastdom_g" @@ fun () ->
  let forest = layer sp c "simple_mst" (fun trace -> Simple_mst.run ~trace g ~k) in
  let dominating = ref [] and clusters = ref [] and tree_rounds = ref 0 in
  List.iter
    (fun (f : Simple_mst.fragment) ->
      let members = Array.of_list f.members in
      let local = Hashtbl.create (Array.length members) in
      Array.iteri (fun i v -> Hashtbl.replace local v i) members;
      let edges =
        List.map
          (fun (e : Graph.edge) -> (Hashtbl.find local e.u, Hashtbl.find local e.v, e.w))
          f.tree_edges
      in
      let sub = Graph.of_edges ~n:(Array.length members) edges in
      let doms, part, rounds = fastdom_tree sp c sub ~k in
      tree_rounds := max !tree_rounds rounds;
      List.iter (fun v -> dominating := members.(v) :: !dominating) doms;
      List.iter
        (fun (cl : Cluster.t) ->
          clusters :=
            ({ center = members.(cl.center); members = List.map (fun v -> members.(v)) cl.members }
              : Cluster.t)
            :: !clusters)
        part.clusters)
    forest.fragments;
  {
    dominating = List.sort compare !dominating;
    partition = Cluster.partition g !clusters;
    forest;
    rounds = forest.rounds + !tree_rounds;
  }

type mst = {
  mst : Graph.edge list;
  dom : dom;
  leader : Leader.result;
  pipeline : Pipeline.result;
  mst_rounds : int;
}

let isqrt_ceil n =
  let rec go k = if k * k >= n then k else go (k + 1) in
  go 1

(* [Fast_mst.run_elected g]. *)
let fast_mst_elected sp c g =
  Spans.span sp "fast_mst" @@ fun () ->
  let elected = layer sp c "leader" (fun trace -> Leader.elect ~trace g) in
  let bfs =
    Spans.span sp "bfs_tree" (fun () ->
        Bfs_tree.of_parents g ~root:elected.leader ~parent:elected.parent
          ~depth:elected.depth)
  in
  let dom = fastdom_graph sp c g ~k:(isqrt_ceil (Graph.n g)) in
  let fragment_of = Simple_mst.fragment_of_array g dom.forest in
  let pipe = layer sp c "pipeline" (fun trace -> Pipeline.run ~trace g ~bfs ~fragment_of) in
  let mst =
    Simple_mst.spanning_forest_edges dom.forest @ pipe.selected
    |> List.sort (fun (a : Graph.edge) b -> compare a.id b.id)
  in
  {
    mst;
    dom;
    leader = elected;
    pipeline = pipe;
    mst_rounds =
      dom.rounds + elected.stats.rounds + pipe.upcast_stats.rounds + pipe.broadcast_rounds;
  }
