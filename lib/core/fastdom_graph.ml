open Kdom_graph

type result = {
  dominating : int list;
  partition : Cluster.partition;
  fragments : Simple_mst.fragment list;
  forest : Simple_mst.result;
  ledger : Ledger.t;
  rounds : int;
}

let run ?small ?variant ?stage ?trace g ~k =
  Kdom_congest.Trace.span_opt trace "fastdom_g" @@ fun () ->
  let forest =
    Kdom_congest.Trace.span_opt trace "fastdom_g.forest" (fun () ->
        Simple_mst.run ?trace g ~k)
  in
  let ledger = Ledger.create () in
  Ledger.charge ledger "SimpleMST forest" forest.rounds;
  let dominating = ref [] in
  let clusters = ref [] in
  let tree_stage = ref [] in
  let c0 = match trace with Some t -> Kdom_congest.Trace.clock t | None -> 0 in
  List.iteri
    (fun fi (f : Simple_mst.fragment) ->
      (* materialize the fragment tree with local numbering *)
      let members = Array.of_list f.members in
      let local = Int_table.create 16 in
      Array.iteri (fun i v -> Int_table.replace local v i) members;
      let edges =
        List.map
          (fun (e : Graph.edge) -> (Int_table.find local e.u, Int_table.find local e.v, e.w))
          f.tree_edges
      in
      let sub = Graph.of_edges ~n:(Array.length members) edges in
      let fd = Fastdom_tree.run ?small ?variant ?stage sub ~k in
      tree_stage := fd.rounds :: !tree_stage;
      (* The fragments are disjoint, so their FastDOM_T executions run in
         parallel: every fragment span starts at the same clock and they
         overlap, told apart by track. *)
      Option.iter
        (fun t ->
          Kdom_congest.Trace.add_span t ~track:(1 + fi)
            ~name:(Printf.sprintf "fastdom_g.fragment[%d]" fi)
            ~start_round:c0 ~stop_round:(c0 + fd.rounds) ())
        trace;
      List.iter (fun v -> dominating := members.(v) :: !dominating) fd.dominating;
      List.iter
        (fun (c : Cluster.t) ->
          clusters :=
            ({ center = members.(c.center); members = List.map (fun v -> members.(v)) c.members }
              : Cluster.t)
            :: !clusters)
        fd.partition.clusters)
    forest.fragments;
  let tree_rounds = List.fold_left max 0 !tree_stage in
  Ledger.charge ledger "FastDOM_T within fragments" tree_rounds;
  Kdom_congest.Trace.charge_opt trace tree_rounds;
  {
    dominating = List.sort compare !dominating;
    partition = Cluster.partition g !clusters;
    fragments = forest.fragments;
    forest;
    ledger;
    rounds = Ledger.total ledger;
  }

let round_bound ~n ~k = Simple_mst.round_bound ~k + Fastdom_tree.round_bound ~n ~k
