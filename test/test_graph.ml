(* Tests for the graph substrate: Graph, Union_find, Traversal, Tree, Mst,
   Generators, Domination. *)

open Kdom_graph

let rng () = Rng.create 0xC0FFEE

(* ------------------------------------------------------------------ *)
(* Graph *)

let test_graph_basic () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 5); (1, 2, 3); (2, 3, 7); (0, 3, 9) ] in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "m" 4 (Graph.m g);
  Alcotest.(check int) "degree 1" 2 (Graph.degree g 1);
  Alcotest.(check int) "total weight" 24 (Graph.total_weight g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Alcotest.(check bool) "distinct weights" true (Graph.has_distinct_weights g)

let test_graph_find_edge () =
  let g = Graph.of_edges ~n:5 [ (0, 1, 1); (1, 2, 2); (3, 4, 3) ] in
  (match Graph.find_edge g 2 1 with
  | Some e -> Alcotest.(check int) "weight" 2 e.w
  | None -> Alcotest.fail "edge 1-2 not found");
  Alcotest.(check bool) "absent edge" true (Graph.find_edge g 0 4 = None);
  Alcotest.(check bool) "disconnected" false (Graph.is_connected g)

let test_graph_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edge_array: self-loop")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (1, 1, 5) ]))

let test_graph_rejects_duplicate () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.of_edge_array: duplicate edge")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (0, 1, 5); (1, 0, 2) ]))

let test_graph_rejects_out_of_range () =
  let bad = Invalid_argument "Graph.of_edge_array: endpoint out of range" in
  Alcotest.check_raises "endpoint = n" bad (fun () -> ignore (Graph.of_edges ~n:3 [ (0, 3, 5) ]));
  Alcotest.check_raises "negative endpoint" bad (fun () ->
      ignore (Graph.of_edges ~n:3 [ (0, 1, 1); (-1, 2, 5) ]))

let test_graph_rejects_negative_n () =
  Alcotest.check_raises "negative n" (Invalid_argument "Graph.of_edge_array: negative n")
    (fun () -> ignore (Graph.of_edges ~n:(-1) []))

(* [neighbors] lists each adjacency in ascending neighbour id whatever the
   order of the input edges: local numbering and the smallest-id
   tie-breaks of the partition stages rely on it. *)
let test_graph_neighbors_ascending () =
  let g =
    Graph.of_edges ~n:6 [ (5, 0, 1); (0, 3, 2); (2, 0, 3); (0, 1, 4); (4, 0, 5); (3, 5, 6) ]
  in
  let ids v = Array.to_list (Array.map fst (Graph.neighbors g v)) in
  Alcotest.(check (list int)) "hub" [ 1; 2; 3; 4; 5 ] (ids 0);
  Alcotest.(check (list int)) "node 5" [ 0; 3 ] (ids 5);
  for v = 0 to 5 do
    Array.iter
      (fun (u, (e : Graph.edge)) ->
        Alcotest.(check int) "opposite endpoint" u (Graph.other_endpoint e v))
      (Graph.neighbors g v)
  done;
  let big = Generators.gnp_connected ~rng:(rng ()) ~n:200 ~p:0.05 in
  for v = 0 to Graph.n big - 1 do
    let a = Array.map fst (Graph.neighbors big v) in
    Array.iteri
      (fun i u -> if i > 0 && a.(i - 1) >= u then Alcotest.failf "node %d not ascending" v)
      a
  done

let test_graph_other_endpoint () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 1) ] in
  let e = Graph.edge g 0 in
  Alcotest.(check int) "other of 0" 1 (Graph.other_endpoint e 0);
  Alcotest.(check int) "other of 1" 0 (Graph.other_endpoint e 1)

let test_subgraph () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 5); (1, 2, 3); (2, 3, 7) ] in
  let sub = Graph.subgraph_of_edges g [ Graph.edge g 0; Graph.edge g 2 ] in
  Alcotest.(check int) "n preserved" 4 (Graph.n sub);
  Alcotest.(check int) "m" 2 (Graph.m sub)

(* ------------------------------------------------------------------ *)
(* Rng *)

(* The first draws of every stream function, recorded from the boxed
   [int64]-state generator: (seed, int64, int 1000, float 1.0, eight bools,
   int64 of a split child, the parent's next int64). *)
let rng_pins =
  [
    (0, -2152535657050944081L, 700, 0x1.b1174620025p-6, "01010101", 1610036449582822964L,
     -8781561602181964933L);
    (1, -4616330145664149646L, 695, 0x1.c0cd7f0f6bcf6p-2, "01000100", -2220894878700164257L,
     -1424582745090185746L);
    (42, -7450291807549245335L, 191, 0x1.54c85f31d00d8p-3, "01110110", -368807618069055893L,
     -1845073873574444724L);
  ]

let test_rng_streams () =
  List.iter
    (fun (seed, i64, i, f, bools, child, next) ->
      let name s = Printf.sprintf "seed %d %s" seed s in
      let r = Rng.create seed in
      Alcotest.(check int64) (name "int64") i64 (Rng.int64 r);
      Alcotest.(check int) (name "int") i (Rng.int r 1000);
      Alcotest.(check (float 0.)) (name "float") f (Rng.float r 1.0);
      Alcotest.(check string) (name "bool") bools
        (String.init 8 (fun _ -> if Rng.bool r then '1' else '0'));
      let s = Rng.split r in
      Alcotest.(check int64) (name "split child") child (Rng.int64 s);
      Alcotest.(check int64) (name "after split") next (Rng.int64 r))
    rng_pins

(* ------------------------------------------------------------------ *)
(* Union_find *)

let test_union_find () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial count" 6 (Union_find.count uf);
  Alcotest.(check bool) "union 0 1" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union 1 0 again" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same 0 1" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same 0 2" false (Union_find.same uf 0 2);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 3);
  Alcotest.(check bool) "transitively same" true (Union_find.same uf 1 2);
  Alcotest.(check int) "count" 3 (Union_find.count uf)

(* ------------------------------------------------------------------ *)
(* Traversal *)

let path5 () = Generators.path ~rng:(rng ()) 5

let test_bfs_path () =
  let g = path5 () in
  let b = Traversal.bfs g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] b.dist;
  Alcotest.(check int) "parent of 3" 2 b.parent.(3);
  Alcotest.(check int) "parent of source" (-1) b.parent.(0)

let test_bfs_multi () =
  let g = path5 () in
  let b = Traversal.bfs_multi g [ 0; 4 ] in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 1; 0 |] b.dist

let test_diameter () =
  let g = path5 () in
  Alcotest.(check int) "path diameter" 4 (Traversal.diameter g);
  let r = rng () in
  let star = Generators.star ~rng:r 10 in
  Alcotest.(check int) "star diameter" 2 (Traversal.diameter star);
  let rad, center = Traversal.radius_and_center star in
  Alcotest.(check int) "star radius" 1 rad;
  Alcotest.(check int) "star center" 0 center

let test_components () =
  let g = Graph.of_edges ~n:5 [ (0, 1, 1); (3, 4, 2) ] in
  let label, count = Traversal.components g in
  Alcotest.(check int) "three components" 3 count;
  Alcotest.(check bool) "0 and 1 together" true (label.(0) = label.(1));
  Alcotest.(check bool) "0 and 3 apart" true (label.(0) <> label.(3))

(* ------------------------------------------------------------------ *)
(* Tree *)

let test_tree_rooting () =
  let g = Generators.binary_tree ~rng:(rng ()) 7 in
  let t = Tree.root_at g 0 in
  Alcotest.(check int) "root depth" 0 t.depth.(0);
  Alcotest.(check int) "leaf depth" 2 t.depth.(6);
  Alcotest.(check int) "height" 2 t.height;
  Alcotest.(check int) "size" 7 (Tree.size t);
  Alcotest.(check int) "children of root" 2 (Array.length t.children.(0));
  let sizes = Tree.subtree_sizes t in
  Alcotest.(check int) "root subtree" 7 sizes.(0);
  Alcotest.(check int) "internal subtree" 3 sizes.(1);
  Alcotest.(check (list int)) "path to root" [ 6; 2; 0 ] (Tree.path_to_root t 6)

let test_tree_not_tree () =
  let g = Generators.cycle ~rng:(rng ()) 4 in
  Alcotest.(check bool) "cycle not tree" false (Tree.is_tree g);
  Alcotest.(check bool) "cycle not forest" false (Tree.is_forest g)

let test_forest_component () =
  let g = Graph.of_edges ~n:6 [ (0, 1, 1); (1, 2, 2); (3, 4, 3) ] in
  Alcotest.(check bool) "is forest" true (Tree.is_forest g);
  let t = Tree.root_component_at g 1 in
  Alcotest.(check int) "component size" 3 (Tree.size t);
  Alcotest.(check int) "outside depth" (-1) t.depth.(3);
  Alcotest.(check (list int)) "component nodes" [ 0; 1; 2 ]
    (List.sort compare (Tree.nodes t))

let test_bottom_up () =
  let g = Generators.path ~rng:(rng ()) 4 in
  let t = Tree.root_at g 0 in
  Alcotest.(check (array int)) "bottom-up order" [| 3; 2; 1; 0 |] (Tree.bottom_up t)

(* ------------------------------------------------------------------ *)
(* Mst *)

let test_mst_known () =
  let g =
    Graph.of_edges ~n:4 [ (0, 1, 1); (1, 2, 2); (2, 3, 3); (3, 0, 4); (0, 2, 5) ]
  in
  let mst = Mst.kruskal g in
  Alcotest.(check int) "weight" 6 (Mst.weight mst);
  Alcotest.(check bool) "spanning tree" true (Mst.is_spanning_tree g mst);
  Alcotest.(check bool) "is mst" true (Mst.is_mst g mst)

let test_mst_algorithms_agree () =
  let r = rng () in
  for _trial = 1 to 20 do
    let g = Generators.gnp_connected ~rng:r ~n:40 ~p:0.1 in
    let k = Mst.kruskal g in
    let p = Mst.prim g in
    let b = Mst.boruvka g in
    Alcotest.(check bool) "kruskal = prim" true (Mst.same_edge_set k p);
    Alcotest.(check bool) "kruskal = boruvka" true (Mst.same_edge_set k b)
  done

let test_mst_multigraph () =
  (* Parallel edges between fragments: 0-1 twice with different weights. *)
  let labels =
    Mst.mst_of_multigraph ~n:3
      [ (0, 1, 10, "heavy"); (0, 1, 1, "light"); (1, 2, 5, "only"); (0, 0, 0, "loop") ]
  in
  Alcotest.(check (list string)) "choices" [ "light"; "only" ] (List.sort compare labels)

let test_not_spanning () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1); (1, 2, 2); (0, 2, 3) ] in
  Alcotest.(check bool) "two edges needed" false
    (Mst.is_spanning_tree g [ Graph.edge g 0 ])

(* ------------------------------------------------------------------ *)
(* Generators *)

let check_tree name g expected_n =
  Alcotest.(check int) (name ^ " size") expected_n (Graph.n g);
  Alcotest.(check bool) (name ^ " is tree") true (Tree.is_tree g);
  Alcotest.(check bool) (name ^ " distinct weights") true (Graph.has_distinct_weights g)

let test_tree_generators () =
  let r = rng () in
  check_tree "path" (Generators.path ~rng:r 17) 17;
  check_tree "star" (Generators.star ~rng:r 9) 9;
  check_tree "binary" (Generators.binary_tree ~rng:r 20) 20;
  check_tree "caterpillar" (Generators.caterpillar ~rng:r ~spine:5 ~legs:3) 20;
  check_tree "broom" (Generators.broom ~rng:r ~handle:6 ~bristles:4) 10;
  check_tree "random" (Generators.random_tree ~rng:r 50) 50;
  check_tree "attachment" (Generators.random_attachment_tree ~rng:r 50) 50

let test_random_tree_distribution () =
  (* Prüfer decoding must produce varied shapes: collect leaf counts. *)
  let r = rng () in
  let leafs g =
    let count = ref 0 in
    for v = 0 to Graph.n g - 1 do
      if Graph.degree g v = 1 then incr count
    done;
    !count
  in
  let samples = List.init 30 (fun _ -> leafs (Generators.random_tree ~rng:r 30)) in
  let distinct = List.sort_uniq compare samples in
  Alcotest.(check bool) "varied leaf counts" true (List.length distinct > 3)

let test_graph_generators () =
  let r = rng () in
  let check name g n =
    Alcotest.(check int) (name ^ " n") n (Graph.n g);
    Alcotest.(check bool) (name ^ " connected") true (Graph.is_connected g);
    Alcotest.(check bool) (name ^ " distinct w") true (Graph.has_distinct_weights g)
  in
  check "cycle" (Generators.cycle ~rng:r 8) 8;
  check "complete" (Generators.complete ~rng:r 7) 7;
  check "grid" (Generators.grid ~rng:r ~rows:4 ~cols:5) 20;
  check "torus" (Generators.torus ~rng:r ~rows:4 ~cols:4) 16;
  check "gnp" (Generators.gnp_connected ~rng:r ~n:40 ~p:0.05) 40;
  check "lollipop" (Generators.lollipop ~rng:r ~clique:6 ~tail:5) 11;
  check "barbell" (Generators.barbell ~rng:r ~clique:5 ~bridge:3) 13;
  check "ladder" (Generators.ladder ~rng:r 7) 14;
  check "regular" (Generators.random_regular ~rng:r ~n:20 ~d:4) 20;
  check "geometric" (Generators.random_geometric ~rng:r ~n:60 ~radius:0.2) 60

let test_grid_diameter () =
  let g = Generators.grid ~rng:(rng ()) ~rows:3 ~cols:7 in
  Alcotest.(check int) "grid diameter" 8 (Traversal.diameter g)

let test_lollipop_shape () =
  let g = Generators.lollipop ~rng:(rng ()) ~clique:10 ~tail:15 in
  Alcotest.(check int) "diameter = tail + 1" 16 (Traversal.diameter g)

let test_regular_degrees () =
  let g = Generators.random_regular ~rng:(rng ()) ~n:30 ~d:4 in
  for v = 0 to 29 do
    Alcotest.(check int) "degree" 4 (Graph.degree g v)
  done

let test_hidden_path () =
  let r = rng () in
  List.iter
    (fun n ->
      let g = Generators.hidden_path ~rng:r ~n ~shortcuts:(2 * n) in
      Alcotest.(check bool) "connected" true (Graph.is_connected g);
      Alcotest.(check bool) "distinct weights" true (Graph.has_distinct_weights g);
      (* the MST is exactly the n-1 lightest edges = the hidden path *)
      let mst = Mst.kruskal g in
      Alcotest.(check int) "mst size" (n - 1) (List.length mst);
      List.iter
        (fun (e : Graph.edge) ->
          Alcotest.(check bool) "light edge" true (e.w <= n - 1))
        mst;
      (* the MST is a Hamiltonian path: every node has degree <= 2 in it *)
      let deg = Array.make n 0 in
      List.iter
        (fun (e : Graph.edge) ->
          deg.(e.u) <- deg.(e.u) + 1;
          deg.(e.v) <- deg.(e.v) + 1)
        mst;
      Array.iter (fun d -> Alcotest.(check bool) "path degree" true (d <= 2)) deg;
      (* shortcuts crush the diameter *)
      Alcotest.(check bool) "small diameter" true
        (Traversal.diameter g <= 4 * Kdom.Log_star.log2 n))
    [ 64; 256; 1024 ]

let test_reweight_preserves_topology () =
  let r = rng () in
  let g = Generators.grid ~rng:r ~rows:3 ~cols:3 in
  let g' = Generators.reweight ~rng:r g in
  Alcotest.(check int) "same m" (Graph.m g) (Graph.m g');
  Array.iteri
    (fun i (e : Graph.edge) ->
      let e' = Graph.edge g' i in
      Alcotest.(check (pair int int)) "same endpoints" (e.u, e.v) (e'.u, e'.v))
    (Graph.edges g)

let test_determinism () =
  let g1 = Generators.random_tree ~rng:(Rng.create 42) 30 in
  let g2 = Generators.random_tree ~rng:(Rng.create 42) 30 in
  Alcotest.(check bool) "same edges" true
    (Array.for_all2
       (fun (a : Graph.edge) (b : Graph.edge) -> a.u = b.u && a.v = b.v && a.w = b.w)
       (Graph.edges g1) (Graph.edges g2))

(* ------------------------------------------------------------------ *)
(* Domination *)

let test_size_bound () =
  Alcotest.(check int) "n=10 k=2" 3 (Domination.size_bound ~n:10 ~k:2);
  Alcotest.(check int) "n=3 k=5" 1 (Domination.size_bound ~n:3 ~k:5);
  Alcotest.(check int) "n=12 k=3" 3 (Domination.size_bound ~n:12 ~k:3)

let test_is_k_dominating () =
  let g = path5 () in
  Alcotest.(check bool) "middle 2-dominates" true (Domination.is_k_dominating g ~k:2 [ 2 ]);
  Alcotest.(check bool) "middle not 1-dominating" false
    (Domination.is_k_dominating g ~k:1 [ 2 ]);
  Alcotest.(check bool) "two cover with k=1" true
    (Domination.is_k_dominating g ~k:1 [ 1; 3 ]);
  Alcotest.(check bool) "empty set fails" false (Domination.is_k_dominating g ~k:4 [])

let test_coverage_radius () =
  let g = path5 () in
  Alcotest.(check int) "radius of {0}" 4 (Domination.coverage_radius g [ 0 ]);
  Alcotest.(check int) "radius of {2}" 2 (Domination.coverage_radius g [ 2 ])

let test_dominator_assignment () =
  let g = path5 () in
  let owner = Domination.dominator_assignment g [ 0; 4 ] in
  Alcotest.(check int) "node 1 -> 0" 0 owner.(1);
  Alcotest.(check int) "node 3 -> 4" 4 owner.(3);
  Alcotest.(check int) "node 0 -> itself" 0 owner.(0)

let test_bfs_levels_bound () =
  let r = rng () in
  List.iter
    (fun (g, name) ->
      List.iter
        (fun k ->
          let d = Domination.bfs_levels g ~root:0 ~k in
          let n = Graph.n g in
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d dominates" name k)
            true
            (Domination.is_k_dominating g ~k d);
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d small" name k)
            true
            (List.length d <= Domination.size_bound_ceil ~n ~k))
        [ 1; 2; 3; 5 ])
    [
      (Generators.path ~rng:r 30, "path30");
      (Generators.random_tree ~rng:r 64, "rt64");
      (Generators.star ~rng:r 20, "star20");
      (Generators.gnp_connected ~rng:r ~n:50 ~p:0.08, "gnp50");
    ]

let test_bfs_levels_shallow () =
  let g = Generators.star ~rng:(rng ()) 12 in
  Alcotest.(check (list int)) "root alone when k >= depth" [ 0 ]
    (Domination.bfs_levels g ~root:0 ~k:2)

(* Regression: the tree showing that the paper's Lemma 2.1 level classes are
   not k-dominating without adding the root.  Root 0 with a pendant leaf u=1
   at depth 1, a deep branch 2..11 (depths 1..10), and a short branch
   12..14 (depths 1..3).  For k=4 the smallest depth class mod 5 is class 4
   = {depth 4, depth 9} — both on the deep branch, at distance > 4 from u. *)
let lemma_gap_tree () =
  let deep = List.init 10 (fun i -> ((if i = 0 then 0 else i + 1), i + 2, 20 + i)) in
  let short = [ (0, 12, 40); (12, 13, 41); (13, 14, 42) ] in
  Graph.of_edges ~n:15 (((0, 1, 10) :: deep) @ short)

let test_lemma_gap () =
  let g = lemma_gap_tree () in
  let k = 4 in
  let b = Traversal.bfs g 0 in
  (* the raw class-4 level set, without the root *)
  let raw = List.filter (fun v -> b.dist.(v) mod (k + 1) = 4) (List.init 15 Fun.id) in
  Alcotest.(check int) "raw class is the smallest" 2 (List.length raw);
  Alcotest.(check bool) "raw class does NOT k-dominate" false
    (Domination.is_k_dominating g ~k raw);
  (* the repaired construction does *)
  let d = Domination.bfs_levels g ~root:0 ~k in
  Alcotest.(check bool) "repaired set k-dominates" true
    (Domination.is_k_dominating g ~k d);
  Alcotest.(check bool) "repaired set small" true
    (List.length d <= Domination.size_bound_ceil ~n:15 ~k)

let test_deepest_first () =
  let r = rng () in
  List.iter
    (fun (g, name) ->
      List.iter
        (fun k ->
          let d = Domination.deepest_first g ~root:0 ~k in
          let n = Graph.n g in
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d dominates" name k)
            true
            (Domination.is_k_dominating g ~k d);
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d small" name k)
            true
            (List.length d <= Domination.size_bound_ceil ~n ~k))
        [ 1; 2; 4 ])
    [
      (Generators.path ~rng:r 30, "path30");
      (Generators.random_tree ~rng:r 64, "rt64");
      (lemma_gap_tree (), "gap-tree");
      (Generators.gnp_connected ~rng:r ~n:50 ~p:0.08, "gnp50");
    ]

let test_greedy_quality () =
  let g = Generators.path ~rng:(rng ()) 21 in
  let d = Domination.greedy g ~k:2 in
  Alcotest.(check bool) "greedy dominates" true (Domination.is_k_dominating g ~k:2 d);
  (* Optimum on a path of 21 with k=2 is ceil(21/5) = 5. *)
  Alcotest.(check bool) "greedy near-optimal" true (List.length d <= 6)

let test_brute_force () =
  let g = Generators.path ~rng:(rng ()) 9 in
  let opt = Domination.brute_force_optimum g ~k:1 in
  Alcotest.(check int) "path9 k=1 optimum" 3 (List.length opt);
  Alcotest.(check bool) "dominates" true (Domination.is_k_dominating g ~k:1 opt)

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let tree_gen =
  QCheck2.Gen.(
    map2
      (fun seed n -> Generators.random_tree ~rng:(Rng.create seed) (2 + n))
      (int_bound 10_000) (int_bound 60))

let graph_gen =
  QCheck2.Gen.(
    map2
      (fun seed n -> Generators.gnp_connected ~rng:(Rng.create seed) ~n:(2 + n) ~p:0.1)
      (int_bound 10_000) (int_bound 40))

let prop_bfs_levels =
  QCheck2.Test.make ~name:"bfs_levels is small and k-dominating" ~count:100
    QCheck2.Gen.(pair tree_gen (int_range 1 6))
    (fun (g, k) ->
      let d = Domination.bfs_levels g ~root:0 ~k in
      Domination.is_k_dominating g ~k d
      && List.length d <= Domination.size_bound_ceil ~n:(Graph.n g) ~k)

let prop_mst_agree =
  QCheck2.Test.make ~name:"prim/boruvka match kruskal" ~count:60 graph_gen (fun g ->
      let k = Mst.kruskal g in
      Mst.same_edge_set k (Mst.prim g) && Mst.same_edge_set k (Mst.boruvka g))

let prop_tree_rooting =
  QCheck2.Test.make ~name:"depths consistent with parents" ~count:100 tree_gen (fun g ->
      let t = Tree.root_at g 0 in
      List.for_all
        (fun v -> v = 0 || t.depth.(v) = t.depth.(t.parent.(v)) + 1)
        (Tree.nodes t))

let prop_diameter_vs_ecc =
  QCheck2.Test.make ~name:"diameter >= any eccentricity" ~count:40 graph_gen (fun g ->
      let d = Traversal.diameter g in
      d >= Traversal.eccentricity g 0 && d >= Traversal.eccentricity g (Graph.n g - 1))

(* Skewed-degree families for the shard balance property: stars and brooms
   concentrate weight on a few hubs, gnp adds an irregular middle — the
   regime where a contiguous split fails and LPT must earn its bound. *)
let skewed_gen =
  QCheck2.Gen.(
    map2
      (fun seed which ->
        let rng = Rng.create seed in
        match which mod 3 with
        | 0 -> Generators.star ~rng (3 + (seed mod 60))
        | 1 ->
            Generators.broom ~rng
              ~handle:(2 + (seed mod 10))
              ~bristles:(1 + (seed mod 40))
        | _ ->
            Generators.gnp_connected ~rng ~n:(3 + (seed mod 50)) ~p:0.2)
      (int_bound 10_000) (int_bound 2))

let prop_shard_balance =
  QCheck2.Test.make ~name:"shard_partition within 2x of ideal load" ~count:100
    QCheck2.Gen.(pair skewed_gen (int_range 1 6))
    (fun (g, shards) ->
      let part = Generators.shard_partition g ~shards in
      let n = Graph.n g in
      Array.length part = n
      && Array.for_all (fun s -> s >= 0 && s < shards) part
      &&
      let loads = Array.make shards 0 in
      let total = ref 0 in
      for v = 0 to n - 1 do
        let w = Graph.degree g v + 1 in
        loads.(part.(v)) <- loads.(part.(v)) + w;
        total := !total + w
      done;
      let max_load = Array.fold_left max 0 loads in
      let max_item =
        let m = ref 0 in
        for v = 0 to n - 1 do
          m := max !m (Graph.degree g v + 1)
        done;
        !m
      in
      (* lower bound on any assignment's heaviest shard *)
      let ideal = max ((!total + shards - 1) / shards) max_item in
      max_load <= 2 * ideal)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bfs_levels;
      prop_mst_agree;
      prop_tree_rooting;
      prop_diameter_vs_ecc;
      prop_shard_balance;
    ]

let () =
  Alcotest.run "graph substrate"
    [
      ( "graph",
        [
          Alcotest.test_case "basic accessors" `Quick test_graph_basic;
          Alcotest.test_case "find_edge" `Quick test_graph_find_edge;
          Alcotest.test_case "rejects self-loops" `Quick test_graph_rejects_self_loop;
          Alcotest.test_case "rejects duplicates" `Quick test_graph_rejects_duplicate;
          Alcotest.test_case "rejects out-of-range endpoints" `Quick test_graph_rejects_out_of_range;
          Alcotest.test_case "rejects negative n" `Quick test_graph_rejects_negative_n;
          Alcotest.test_case "neighbors ascending" `Quick test_graph_neighbors_ascending;
          Alcotest.test_case "other_endpoint" `Quick test_graph_other_endpoint;
          Alcotest.test_case "subgraph_of_edges" `Quick test_subgraph;
        ] );
      ("rng", [ Alcotest.test_case "pinned streams" `Quick test_rng_streams ]);
      ("union_find", [ Alcotest.test_case "union/find/count" `Quick test_union_find ]);
      ( "traversal",
        [
          Alcotest.test_case "bfs on path" `Quick test_bfs_path;
          Alcotest.test_case "multi-source bfs" `Quick test_bfs_multi;
          Alcotest.test_case "diameter and radius" `Quick test_diameter;
          Alcotest.test_case "components" `Quick test_components;
        ] );
      ( "tree",
        [
          Alcotest.test_case "rooting a binary tree" `Quick test_tree_rooting;
          Alcotest.test_case "cycle is not a tree" `Quick test_tree_not_tree;
          Alcotest.test_case "forest component" `Quick test_forest_component;
          Alcotest.test_case "bottom-up order" `Quick test_bottom_up;
        ] );
      ( "mst",
        [
          Alcotest.test_case "known instance" `Quick test_mst_known;
          Alcotest.test_case "algorithms agree" `Quick test_mst_algorithms_agree;
          Alcotest.test_case "multigraph kruskal" `Quick test_mst_multigraph;
          Alcotest.test_case "non-spanning rejected" `Quick test_not_spanning;
        ] );
      ( "generators",
        [
          Alcotest.test_case "tree families" `Quick test_tree_generators;
          Alcotest.test_case "random tree variety" `Quick test_random_tree_distribution;
          Alcotest.test_case "graph families" `Quick test_graph_generators;
          Alcotest.test_case "grid diameter" `Quick test_grid_diameter;
          Alcotest.test_case "lollipop diameter" `Quick test_lollipop_shape;
          Alcotest.test_case "regular degrees" `Quick test_regular_degrees;
          Alcotest.test_case "hidden path family" `Quick test_hidden_path;
          Alcotest.test_case "reweight keeps topology" `Quick test_reweight_preserves_topology;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "domination",
        [
          Alcotest.test_case "size bound" `Quick test_size_bound;
          Alcotest.test_case "is_k_dominating" `Quick test_is_k_dominating;
          Alcotest.test_case "coverage radius" `Quick test_coverage_radius;
          Alcotest.test_case "dominator assignment" `Quick test_dominator_assignment;
          Alcotest.test_case "bfs_levels bound" `Quick test_bfs_levels_bound;
          Alcotest.test_case "bfs_levels shallow tree" `Quick test_bfs_levels_shallow;
          Alcotest.test_case "lemma-2.1 gap regression" `Quick test_lemma_gap;
          Alcotest.test_case "deepest-first greedy" `Quick test_deepest_first;
          Alcotest.test_case "greedy quality" `Quick test_greedy_quality;
          Alcotest.test_case "brute force optimum" `Quick test_brute_force;
        ] );
      ("properties", qcheck_cases);
    ]
