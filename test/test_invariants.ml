(* Cross-module invariants tying the distributed algorithms back to the
   paper's analysis lemmas. *)

open Kdom_graph
open Kdom

(* Lemma 5.2: the level function L(v) — 0 at the leaves of the BFS tree,
   1 + max over children otherwise — governs when each node starts
   upcasting in the pipeline.  Our implementation adds a fixed offset of 2
   rounds (the fragment-id handshake). *)
let test_pipeline_start_times () =
  let g = Generators.gnp_connected ~rng:(Rng.create 1) ~n:150 ~p:0.05 in
  let dom = Fastdom_graph.run g ~k:4 in
  let fragment_of = Simple_mst.fragment_of_array g dom.forest in
  let bfs, _ = Bfs_tree.run g ~root:0 in
  let pipe = Pipeline.run g ~bfs ~fragment_of in
  let n = Graph.n g in
  let level = Array.make n (-1) in
  let rec compute v =
    if level.(v) >= 0 then level.(v)
    else begin
      let l =
        match bfs.children.(v) with
        | [] -> 0
        | kids -> 1 + List.fold_left (fun acc c -> max acc (compute c)) 0 kids
      in
      level.(v) <- l;
      l
    end
  in
  for v = 0 to n - 1 do
    ignore (compute v)
  done;
  Array.iteri
    (fun v started ->
      if v <> bfs.root && started >= 0 then
        Alcotest.(check int)
          (Printf.sprintf "node %d starts at L(v)+2" v)
          (level.(v) + 2) started)
    pipe.started_at

(* Lemma 2.2: the root's census counters equal the sequential level-class
   sizes (plus the root repair for classes l <> 0). *)
let test_census_counts_match_sequential () =
  let g = Generators.random_tree ~rng:(Rng.create 2) 300 in
  let k = 4 in
  let r = Diam_dom.run g ~root:0 ~k in
  match r.level with
  | None -> Alcotest.fail "expected a census on a deep tree"
  | Some selected ->
    let b = Traversal.bfs g 0 in
    let counts = Array.make (k + 1) 0 in
    Array.iter (fun d -> counts.(d mod (k + 1)) <- counts.(d mod (k + 1)) + 1) b.dist;
    for l = 1 to k do
      counts.(l) <- counts.(l) + 1
    done;
    let best = ref 0 in
    for l = 1 to k do
      if counts.(l) < counts.(!best) then best := l
    done;
    Alcotest.(check int) "selected class matches sequential argmin" !best selected;
    let d = Diam_dom.dominating_list r in
    Alcotest.(check int) "output size matches class count" counts.(!best)
      (List.length d)

(* Theorem 4.4's partition refines the SimpleMST fragment forest: every
   cluster lies inside a single fragment. *)
let test_clusters_within_fragments () =
  let g = Generators.grid ~rng:(Rng.create 3) ~rows:12 ~cols:12 in
  let r = Fastdom_graph.run g ~k:3 in
  let frag_of = Simple_mst.fragment_of_array g r.forest in
  List.iter
    (fun (c : Cluster.t) ->
      let f = frag_of.(c.center) in
      List.iter
        (fun v -> Alcotest.(check int) "cluster inside one fragment" f frag_of.(v))
        c.members)
    r.partition.clusters

(* The ledger totals compose: FastMST's round count is exactly the sum of
   its stage charges. *)
let test_ledger_composition () =
  let g = Generators.gnp_connected ~rng:(Rng.create 4) ~n:200 ~p:0.04 in
  let r = Fast_mst.run g in
  let total = List.fold_left (fun acc (_, x) -> acc + x) 0 (Ledger.entries r.ledger) in
  Alcotest.(check int) "rounds = sum of ledger entries" total r.rounds;
  Alcotest.(check int) "four stages" 4 (List.length (Ledger.entries r.ledger))

(* Corollary 3.9(b) via the dominator assignment: every node's cluster
   center is among its nearest dominators within the cluster. *)
let prop_partition_radius_tight =
  QCheck2.Test.make ~name:"cluster members within k of their center" ~count:40
    QCheck2.Gen.(triple (int_bound 10_000) (int_range 10 120) (int_range 1 5))
    (fun (seed, n, k) ->
      let g = Generators.gnp_connected ~rng:(Rng.create seed) ~n ~p:0.1 in
      let r = Fastdom_graph.run g ~k in
      List.for_all
        (fun (c : Cluster.t) -> Cluster.radius g c <= k)
        r.partition.clusters)

let prop_pipeline_no_stalls =
  QCheck2.Test.make ~name:"pipeline never stalls (Lemma 5.3)" ~count:40
    QCheck2.Gen.(triple (int_bound 10_000) (int_range 10 100) (int_range 1 6))
    (fun (seed, n, k) ->
      let g = Generators.gnp_connected ~rng:(Rng.create seed) ~n ~p:0.08 in
      let dom = Fastdom_graph.run g ~k in
      let fragment_of = Simple_mst.fragment_of_array g dom.forest in
      let bfs, _ = Bfs_tree.run g ~root:0 in
      let pipe = Pipeline.run g ~bfs ~fragment_of in
      pipe.stalls = 0)

(* Typed rejection at entry: on an empty graph, a one-node graph and a
   root out of range, each runner either succeeds with an oracle-clean
   result or raises [Invalid_argument] whose message starts with its own
   name — never an index error or a round-limit abort. *)
let mst_check g (mst : Graph.edge list) =
  if Mst.same_edge_set mst (Mst.kruskal g) then []
  else [ { Kdom_congest.Oracle.check = "kruskal"; detail = "MST differs from Kruskal's" } ]

let entry_runners =
  [
    ( "Bfs_tree.run",
      fun g ~root ->
        let info, _ = Bfs_tree.run g ~root in
        Kdom_congest.Oracle.bfs_tree g ~root ~parent:info.parent ~depth:info.depth );
    ( "Diam_dom.run",
      fun g ~root ->
        Kdom_congest.Oracle.k_domination g ~k:2
          (Diam_dom.dominating_list (Diam_dom.run g ~root ~k:2)) );
    ( "Coloring.three_color_congest",
      fun g ~root ->
        Kdom_congest.Oracle.proper_coloring g ~palette:3
          (fst (Coloring.three_color_congest g ~root)) );
    ("Fast_mst.run", fun g ~root -> mst_check g (Fast_mst.run ~root g).mst);
    ("Collect_all.run", fun g ~root -> mst_check g (Collect_all.run ~root g).mst);
  ]

let test_entry_rejection () =
  let tree = Generators.random_tree ~rng:(Rng.create 7) 12 in
  let inputs =
    [
      ("n = 0", Graph.of_edges ~n:0 [], 0);
      ("n = 1", Graph.of_edges ~n:1 [], 0);
      ("root -1", tree, -1);
      ("root n", tree, Graph.n tree);
    ]
  in
  List.iter
    (fun (name, run) ->
      List.iter
        (fun (what, g, root) ->
          match run g ~root with
          | [] -> ()
          | failures ->
            Alcotest.failf "%s on %s: %s" name what (Kdom_congest.Oracle.describe failures)
          | exception Invalid_argument msg when String.starts_with ~prefix:(name ^ ": ") msg
            -> ()
          | exception e ->
            Alcotest.failf "%s on %s raised %s" name what (Printexc.to_string e))
        inputs)
    entry_runners

let () =
  Alcotest.run "invariants"
    [
      ( "lemmas",
        [
          Alcotest.test_case "Lemma 5.2 start times" `Quick test_pipeline_start_times;
          Alcotest.test_case "Lemma 2.2 census counts" `Quick
            test_census_counts_match_sequential;
          Alcotest.test_case "clusters refine fragments" `Quick
            test_clusters_within_fragments;
          Alcotest.test_case "ledger composition" `Quick test_ledger_composition;
          Alcotest.test_case "typed rejection at entry" `Quick test_entry_rejection;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_partition_radius_tight; prop_pipeline_no_stalls ] );
    ]
