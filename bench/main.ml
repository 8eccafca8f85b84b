(* Benchmark harness: regenerates every quantitative claim of the paper as a
   table (experiments E1..E12, see DESIGN.md and EXPERIMENTS.md), and
   registers one Bechamel wall-clock kernel per experiment.

     dune exec bench/main.exe              # all tables + wall-clock pass
     dune exec bench/main.exe -- e1 e8     # selected tables only
     dune exec bench/main.exe -- tables    # all tables, skip wall clock
*)

open Kdom_graph
open Kdom

let pf = Format.printf

let header title claim =
  pf "@.=== %s ===@." title;
  pf "claim: %s@.@." claim

let seeded seed = Rng.create seed

(* ------------------------------------------------------------------ *)
(* E1 — DiamDOM (Lemma 2.3): rounds <= 5*Diam + k, |D| <= ceil(n/(k+1)). *)

let tree_for rng family n =
  match family with
  | "path" -> Generators.path ~rng n
  | "star" -> Generators.star ~rng n
  | "binary" -> Generators.binary_tree ~rng n
  | "caterpillar" -> Generators.caterpillar ~rng ~spine:(max 1 (n / 5)) ~legs:4
  | "random" -> Generators.random_tree ~rng n
  | "broom" -> Generators.broom ~rng ~handle:(n / 2) ~bristles:(n - (n / 2))
  | _ -> invalid_arg "tree_for"

let e1 () =
  header "E1  DiamDOM on trees"
    "Lemma 2.3: rounds <= 5*Diam(T) + k; |D| <= ceil(n/(k+1)) (root-augmented)";
  pf "%-12s %6s %3s %6s %7s %7s %6s %7s %5s@." "family" "n" "k" "diam" "rounds" "bound"
    "|D|" "ceil" "ok";
  List.iter
    (fun (family, n) ->
      List.iter
        (fun k ->
          let g = tree_for (seeded (n + k)) family n in
          let diam = Traversal.diameter g in
          let r = Diam_dom.run g ~root:0 ~k in
          let d = Diam_dom.dominating_list r in
          let bound = Diam_dom.round_bound ~diam ~k in
          let size_bound = Domination.size_bound_ceil ~n ~k in
          let ok =
            r.rounds <= bound
            && List.length d <= size_bound
            && Domination.is_k_dominating g ~k d
          in
          pf "%-12s %6d %3d %6d %7d %7d %6d %7d %5b@." family n k diam r.rounds bound
            (List.length d) size_bound ok)
        [ 2; 8 ])
    [
      ("path", 512); ("path", 2048);
      ("star", 2048);
      ("binary", 2047);
      ("caterpillar", 2000);
      ("broom", 1024);
      ("random", 512); ("random", 2048);
    ]

(* ------------------------------------------------------------------ *)
(* E2 — tree symmetry breaking (Lemma 3.2/3.3): O(log* n) rounds. *)

let e2 () =
  header "E2  Cole-Vishkin / MIS / BalancedDOM on trees"
    "Lemmas 3.2-3.3: O(log* n) rounds; balanced dominating set with |D| <= n/2, \
     clusters >= 2";
  pf "%8s %8s %9s %9s %9s %8s %9s@." "n" "log*n" "3col-rnd" "congest" "bd-rnd" "|D|"
    "|D|/(n/2)";
  List.iter
    (fun n ->
      let g = Generators.random_tree ~rng:(seeded n) n in
      let t = Tree.root_at g 0 in
      let col = Coloring.three_color t in
      let _, congest_stats = Coloring.three_color_congest g ~root:0 in
      let bd = Balanced_dom.run t in
      let dsize =
        Array.fold_left (fun acc x -> if x then acc + 1 else acc) 0 bd.dominating
      in
      pf "%8d %8d %9d %9d %9d %8d %9.2f@." n (Log_star.log_star n) col.rounds
        congest_stats.rounds bd.rounds dsize
        (float_of_int dsize /. (float_of_int n /. 2.0)))
    [ 64; 256; 1024; 4096; 16384; 65536 ]

(* ------------------------------------------------------------------ *)
(* E3 — the DOM_Partition family (Lemmas 3.4/3.6/3.7/3.8). *)

let e3 () =
  header "E3  DOM_Partition variants on a 2000-node random tree"
    "sizes >= k+1 (all); radius <= 4k^2 (v1) / 5k+2 (v2, fast); rounds \
     O(k^2 log* n) / O(k log k log* n) / O(k log* n)";
  let n = 2000 in
  let g = Generators.random_tree ~rng:(seeded 3) n in
  pf "%3s | %8s %6s %6s | %8s %6s %6s | %8s %6s %6s@." "k" "v1-rnds" "rad" "minsz"
    "v2-rnds" "rad" "minsz" "fast-rnd" "rad" "minsz";
  List.iter
    (fun k ->
      let r1 = Dom_partition.run_1 g ~k in
      let r2 = Dom_partition.run_2 g ~k in
      let rf = Dom_partition.run g ~k in
      pf "%3d | %8d %6d %6d | %8d %6d %6d | %8d %6d %6d@." k r1.rounds
        (Dom_partition.max_radius r1) (Dom_partition.min_size r1) r2.rounds
        (Dom_partition.max_radius r2) (Dom_partition.min_size r2) rf.rounds
        (Dom_partition.max_radius rf) (Dom_partition.min_size rf))
    [ 1; 2; 4; 8; 16; 32; 64 ];
  pf "@.radius bounds: v1 <= 4k^2, v2/fast <= 5k+2; all cluster sizes >= k+1@."

(* ------------------------------------------------------------------ *)
(* E4 — FastDOM_T (Theorem 3.2). *)

let e4 () =
  header "E4  FastDOM_T on trees"
    "Theorem 3.2: |D| <= n/(k+1), rounds O(k log* n).  census = the paper's \
     DiamDOM stage (ceil(|C|/(k+1)) per cluster after the Lemma 2.1 repair); \
     dp = the Tree_dp stage that restores the exact floor bound";
  pf "%-10s %6s %3s %9s | %7s %5s | %7s %5s | %7s %9s %7s@." "family" "n" "k"
    "n/(k+1)" "census" "ok" "dp" "ok" "rounds" "k*log*n" "Rad(P)";
  List.iter
    (fun (family, n) ->
      List.iter
        (fun k ->
          let g = tree_for (seeded (n * k)) family n in
          let r = Fastdom_tree.run g ~k in
          let rdp = Fastdom_tree.run ~stage:Fastdom_tree.Optimal_dp g ~k in
          let target = Domination.size_bound ~n ~k in
          let ok_census =
            Domination.is_k_dominating g ~k r.dominating
            && Cluster.max_radius r.partition <= k
          in
          let ok_dp =
            Domination.is_k_dominating g ~k rdp.dominating
            && List.length rdp.dominating <= target
          in
          pf "%-10s %6d %3d %9d | %7d %5b | %7d %5b | %7d %9d %7d@." family n k target
            (List.length r.dominating)
            ok_census
            (List.length rdp.dominating)
            ok_dp r.rounds (Log_star.k_log_star ~k ~n)
            (Cluster.max_radius r.partition))
        [ 2; 4; 16 ])
    [ ("random", 512); ("random", 2048); ("random", 8192); ("path", 2048); ("binary", 2047) ]

(* ------------------------------------------------------------------ *)
(* E5 — SimpleMST (Lemma 4.3). *)

let graph_for rng family n =
  match family with
  | "gnp" -> Generators.gnp_connected ~rng ~n ~p:(8.0 /. float_of_int n)
  | "grid" ->
    let side = int_of_float (sqrt (float_of_int n)) in
    Generators.grid ~rng ~rows:side ~cols:side
  | "torus" ->
    let side = int_of_float (sqrt (float_of_int n)) in
    Generators.torus ~rng ~rows:side ~cols:side
  | "ladder" -> Generators.ladder ~rng (n / 2)
  | "lollipop" -> Generators.lollipop ~rng ~clique:(n / 4) ~tail:(n - (n / 4))
  | "regular" -> Generators.random_regular ~rng ~n ~d:4
  | "hidden" -> Generators.hidden_path ~rng ~n ~shortcuts:(2 * n)
  | _ -> invalid_arg "graph_for"

let e5 () =
  header "E5  SimpleMST spanning forest"
    "Lemma 4.3: O(k) rounds (exact charge 5*2^i+2 per phase); fragments of size >= \
     k+1 that are MST subtrees.  congest = rounds of the message-level \
     implementation of the same schedule; same? = identical fragment partitions";
  pf "%-8s %6s %3s %7s %7s %7s %9s %7s %6s %6s@." "family" "n" "k" "rounds" "bound"
    "congest" "fragments" "min-sz" "mst?" "same?";
  List.iter
    (fun (family, n) ->
      List.iter
        (fun k ->
          let g = graph_for (seeded (n + (3 * k))) family n in
          let r = Simple_mst.run g ~k in
          let mst_ids =
            List.map (fun (e : Graph.edge) -> e.id) (Mst.kruskal g)
          in
          let subtrees =
            List.for_all
              (fun (e : Graph.edge) -> List.mem e.id mst_ids)
              (Simple_mst.spanning_forest_edges r)
          in
          let minsz =
            List.fold_left
              (fun acc (f : Simple_mst.fragment) -> min acc (List.length f.members))
              max_int r.fragments
          in
          let congest = Simple_mst_congest.run g ~k in
          let partition_of fragments =
            List.map
              (fun (f : Simple_mst.fragment) -> List.sort compare f.members)
              fragments
            |> List.sort compare
          in
          let same = partition_of congest.fragments = partition_of r.fragments in
          pf "%-8s %6d %3d %7d %7d %7d %9d %7d %6b %6b@." family n k r.rounds
            (Simple_mst.round_bound ~k)
            congest.stats.rounds
            (List.length r.fragments) minsz subtrees same)
        [ 2; 8; 32 ])
    [ ("gnp", 1024); ("grid", 1024); ("torus", 1024); ("regular", 1024) ]

(* ------------------------------------------------------------------ *)
(* E6 — FastDOM_G (Theorem 4.4). *)

let e6 () =
  header "E6  FastDOM_G on general graphs"
    "Theorem 4.4: k-dominating set of size ~n/(k+1) in O(k log* n) rounds";
  pf "%-8s %6s %3s %6s %9s %7s %9s %5s@." "family" "n" "k" "|D|" "n/(k+1)" "rounds"
    "k*log*n" "ok";
  List.iter
    (fun (family, n) ->
      List.iter
        (fun k ->
          let g = graph_for (seeded (n * (k + 1))) family n in
          let r = Fastdom_graph.run g ~k in
          let ok = Domination.is_k_dominating g ~k r.dominating in
          pf "%-8s %6d %3d %6d %9d %7d %9d %5b@." family n k
            (List.length r.dominating)
            (Domination.size_bound ~n ~k)
            r.rounds (Log_star.k_log_star ~k ~n) ok)
        [ 2; 4; 16 ])
    [ ("gnp", 1024); ("grid", 1024); ("ladder", 1024); ("lollipop", 512) ]

(* ------------------------------------------------------------------ *)
(* E7 — Pipeline (Lemmas 5.3/5.5): full pipelining, O(N + Diam) rounds,
   red-rule traffic reduction. *)

let e7 () =
  header "E7  Pipelined convergecast"
    "Lemma 5.3: zero stalls; Lemma 5.5: upcast rounds <= 2*Diam + N + c; the red \
     rule shrinks root traffic vs collect-all";
  pf "%-8s %6s %6s %5s %7s %7s %7s %9s %9s@." "family" "n" "diam" "N" "upcast" "bound"
    "stalls" "root-rcv" "collect";
  List.iter
    (fun (family, n, k) ->
      let g = graph_for (seeded (n + k)) family n in
      let dom = Fastdom_graph.run g ~k in
      let fragment_of = Simple_mst.fragment_of_array g dom.forest in
      let bfs, _ = Bfs_tree.run g ~root:0 in
      let pipe = Pipeline.run g ~bfs ~fragment_of in
      let nf = 1 + Array.fold_left max 0 fragment_of in
      let diam = Traversal.diameter g in
      let trivial = Collect_all.run g in
      pf "%-8s %6d %6d %5d %7d %7d %7d %9d %9d@." family n diam nf
        pipe.upcast_stats.rounds
        (Pipeline.round_bound ~diam ~fragments:nf)
        pipe.stalls pipe.root_received trivial.edges_at_root)
    [
      ("gnp", 512, 4); ("gnp", 1024, 8);
      ("grid", 1024, 8);
      ("torus", 1024, 4);
      ("regular", 1024, 8);
      ("lollipop", 512, 8);
    ]

(* ------------------------------------------------------------------ *)
(* E8 — FastMST vs GHS vs Collect-all (Theorem 5.6): who wins where. *)

let e8 () =
  header "E8  Distributed MST round comparison"
    "Theorem 5.6: FastMST = O(sqrt(n) log* n + Diam); GHS = O(n log n)-style; \
     collect-all = O(m + Diam).  Shape: FastMST's advantage grows with n on \
     low-diameter graphs; on high-diameter graphs Diam dominates everyone.";
  pf "%-8s %6s %6s %7s | %9s %9s %9s | %9s %7s@." "family" "n" "diam" "m" "fast"
    "ghs" "collect" "bound5.6" "winner";
  List.iter
    (fun (family, ns) ->
      List.iter
        (fun n ->
          let g = graph_for (seeded (7 * n)) family n in
          (* exact diameter is quadratic; fall back to a double-sweep
             estimate on the largest instances (informational column only) *)
          let diam =
            if Graph.n g <= 2500 then Traversal.diameter g
            else begin
              let far =
                let d = Traversal.distances_from g 0 in
                let best = ref 0 in
                Array.iteri (fun v x -> if x > d.(!best) then best := v) d;
                !best
              in
              Traversal.eccentricity g far
            end
          in
          let fast = Fast_mst.run g in
          let ghs = Ghs.run g in
          let kruskal = Mst.kruskal g in
          assert (Mst.same_edge_set fast.mst kruskal);
          assert (Mst.same_edge_set ghs.mst kruskal);
          (* collect-all simulates one round per edge description; skip it
             when the message-level run would dominate the harness *)
          let collect_rounds =
            if Graph.m g > 10_000 then None
            else begin
              let trivial = Collect_all.run g in
              assert (Mst.same_edge_set trivial.mst kruskal);
              Some trivial.rounds
            end
          in
          let candidates =
            (fast.rounds, "fast") :: (ghs.rounds, "ghs")
            :: (match collect_rounds with Some c -> [ (c, "collect") ] | None -> [])
          in
          let _, winner = List.fold_left min (List.hd candidates) (List.tl candidates) in
          let collect_str =
            match collect_rounds with Some c -> string_of_int c | None -> "-"
          in
          pf "%-8s %6d %6d %7d | %9d %9d %9s | %9.0f %7s@." family n diam (Graph.m g)
            fast.rounds ghs.rounds collect_str
            (Log_star.fast_mst_bound ~n ~diam)
            winner)
        ns)
    [
      ("gnp", [ 256; 512; 1024 ]);
      ("grid", [ 256; 1024 ]);
      ("ladder", [ 256; 1024 ]);
      ("lollipop", [ 256 ]);
      ("hidden", [ 1024; 4096; 16384; 32768 ]);
    ];
  pf
    "@.The 'hidden' family (path MST + heavy random shortcuts, Diam = O(log n)) is@.\
     the Theorem 5.6 regime: GHS fragment trees grow Theta(n) deep while FastMST@.\
     pays sqrt(n) log* n + Diam; the crossover appears as n grows.@."

(* ------------------------------------------------------------------ *)
(* E9 — routing application [PU]. *)

let e9 () =
  header "E9  Cluster routing tables"
    "[PU] application: per-node table shrinks towards |C| + n/(k+1) entries at the \
     cost of <= 2k additive stretch";
  let n = 512 in
  let g = Generators.gnp_connected ~rng:(seeded 9) ~n ~p:(6.0 /. float_of_int n) in
  pf "graph: gnp n=%d m=%d diam=%d; full tables = %d entries/node@.@." n (Graph.m g)
    (Traversal.diameter g)
    (Kdom_apps.Routing.full_table_size g);
  pf "%3s %9s %10s %12s %12s %10s@." "k" "clusters" "avg-table" "avg-stretch"
    "max-stretch" "max-extra";
  List.iter
    (fun k ->
      let scheme = Kdom_apps.Routing.build g ~k in
      let report = Kdom_apps.Routing.evaluate ~rng:(seeded (k + 100)) scheme ~pairs:400 in
      let rng = seeded (k + 200) in
      let worst_extra = ref 0 in
      for _i = 1 to 200 do
        let src = Rng.int rng n and dst = Rng.int rng n in
        if src <> dst then begin
          let r = Kdom_apps.Routing.route scheme ~src ~dst in
          worst_extra := max !worst_extra (r.hops - r.shortest)
        end
      done;
      pf "%3d %9d %10.1f %12.3f %12.2f %6d<=2k@." k
        (List.length scheme.partition.clusters)
        report.avg_table report.avg_stretch report.max_stretch !worst_extra)
    [ 1; 2; 3; 5; 8; 12 ];
  pf "@.-- nested multi-level hierarchy ([PU]'s actual shape) --@.";
  pf "%-12s %9s %10s %12s %12s@." "levels" "clusters" "avg-table" "avg-stretch"
    "max-stretch";
  List.iter
    (fun ks ->
      let h = Kdom_apps.Hierarchy.build g ~ks in
      let report = Kdom_apps.Hierarchy.evaluate ~rng:(seeded 77) h ~pairs:300 in
      let label = String.concat "," (List.map string_of_int ks) in
      let tops = Array.length h.levels.(Array.length h.levels - 1).centers in
      pf "k=%-10s %9d %10.1f %12.3f %12.2f@." label tops report.avg_table
        report.avg_stretch report.max_stretch)
    [ [ 2 ]; [ 2; 4 ]; [ 2; 4; 8 ]; [ 3; 9 ] ]

(* ------------------------------------------------------------------ *)
(* E10 — center selection [BKP] and directory placement [P2]. *)

let e10 () =
  header "E10  Server placement and directory replication"
    "[BKP]/[P2] applications: max client distance <= k with ~n/(k+1) servers; \
     read-cost vs update-cost replication tradeoff";
  let g = Generators.grid ~rng:(seeded 10) ~rows:20 ~cols:20 in
  pf "graph: 20x20 grid (n=400, diam=%d)@.@." (Traversal.diameter g);
  pf "%3s | %8s %6s %7s | %8s %8s | %8s %10s %12s@." "k" "servers" "max-d" "avg-d"
    "greedy-d" "random-d" "copies" "avg-lookup" "update-cost";
  List.iter
    (fun k ->
      let kdom = Kdom_apps.Centers.via_kdom g ~k in
      let greedy = Kdom_apps.Centers.greedy_k_center g ~count:kdom.count in
      let random =
        Kdom_apps.Centers.random_placement ~rng:(seeded (k * 31)) g ~count:kdom.count
      in
      let d = Kdom_apps.Directory.place g ~k in
      let c = Kdom_apps.Directory.evaluate d in
      pf "%3d | %8d %6d %7.2f | %8d %8d | %8d %10.2f %12d@." k kdom.count
        kdom.max_distance kdom.avg_distance greedy.max_distance random.max_distance
        c.copies c.avg_lookup c.update_cost)
    [ 1; 2; 3; 5; 8; 12 ]

(* ------------------------------------------------------------------ *)
(* E11 — design-choice ablations called out in DESIGN.md. *)

let e11 () =
  header "E11  Ablations"
    "DESIGN.md design choices: (a) Small-Dom-Set construction (MIS stars + \
     BalancedDOM repair vs already-balanced matching); (b) in-cluster stage \
     (paper census vs optimal DP); (c) designated root vs leader election";
  let g = Generators.random_tree ~rng:(seeded 11) 2000 in
  pf "-- (a) Small-Dom-Set inside DOM_Partition(k), random tree n=2000 --@.";
  pf "%3s | %9s %9s | %9s %9s@." "k" "mis-rnds" "clusters" "match-rnd" "clusters";
  List.iter
    (fun k ->
      let mis = Dom_partition.run ~small:Small_dom_set.via_mis g ~k in
      let mat = Dom_partition.run ~small:Small_dom_set.via_matching g ~k in
      pf "%3d | %9d %9d | %9d %9d@." k mis.rounds
        (List.length mis.clusters)
        mat.rounds
        (List.length mat.clusters))
    [ 2; 8; 32 ];
  pf "@.-- (b) in-cluster stage of FastDOM_T, random tree n=2000 --@.";
  pf "%3s | %9s %7s | %9s %7s@." "k" "census-rd" "|D|" "dp-rds" "|D|";
  List.iter
    (fun k ->
      let census = Fastdom_tree.run g ~k in
      let dp = Fastdom_tree.run ~stage:Fastdom_tree.Optimal_dp g ~k in
      pf "%3d | %9d %7d | %9d %7d@." k census.rounds
        (List.length census.dominating)
        dp.rounds
        (List.length dp.dominating))
    [ 2; 8; 32 ];
  pf "@.-- (c) FastMST root acquisition, gnp n=512 --@.";
  let gg = Generators.gnp_connected ~rng:(seeded 12) ~n:512 ~p:0.015 in
  let designated = Fast_mst.run gg in
  let elected = Fast_mst.run_elected gg in
  pf "designated root: %d rounds; with leader election: %d rounds (+%d for the \
      O(Diam) election)@."
    designated.rounds elected.rounds
    (elected.rounds - designated.rounds
    + (match List.assoc_opt "BFS tree" (Ledger.entries designated.ledger) with
      | Some r -> r
      | None -> 0))

(* ------------------------------------------------------------------ *)
(* E12 — message complexity of the message-level algorithms. *)

let e12 () =
  header "E12  Message complexity (message-level algorithms)"
    "The paper ignores message counts (§1.2: a synchronizer costs 2m per \
     round); this table reports what the message-level implementations \
     actually send.";
  pf "%-10s %6s %7s | %9s %9s %9s %9s %9s@." "family" "n" "m" "bfs" "coloring"
    "diamdom" "pipeline" "leader";
  List.iter
    (fun (family, n) ->
      let g = graph_for (seeded (13 * n)) family n in
      let _, bfs_stats = Bfs_tree.run g ~root:0 in
      let leader = Leader.elect g in
      let dom = Fastdom_graph.run g ~k:4 in
      let fragment_of = Simple_mst.fragment_of_array g dom.forest in
      let bfs, _ = Bfs_tree.run g ~root:0 in
      let pipe = Pipeline.run g ~bfs ~fragment_of in
      (* coloring and DiamDOM run on the graph's MST to have a tree *)
      let tree = Graph.subgraph_of_edges g (Mst.kruskal g) in
      let _, col_stats = Coloring.three_color_congest tree ~root:0 in
      let dd = Diam_dom.run tree ~root:0 ~k:4 in
      let dd_msgs =
        dd.init_stats.messages
        + match dd.census_stats with Some s -> s.messages | None -> 0
      in
      pf "%-10s %6d %7d | %9d %9d %9d %9d %9d@." family n (Graph.m g)
        bfs_stats.messages col_stats.messages dd_msgs
        pipe.upcast_stats.messages leader.stats.messages)
    [ ("gnp", 256); ("gnp", 1024); ("grid", 1024); ("ladder", 512) ]

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock kernels: one per experiment. *)

let wall_clock () =
  let open Bechamel in
  pf "@.=== Wall-clock kernels (Bechamel, monotonic clock) ===@.";
  let mk name f = Test.make ~name (Staged.stage f) in
  let g_tree = Generators.random_tree ~rng:(seeded 101) 1024 in
  let g_gnp = Generators.gnp_connected ~rng:(seeded 102) ~n:256 ~p:0.03 in
  let g_grid = Generators.grid ~rng:(seeded 103) ~rows:16 ~cols:16 in
  let rooted = Tree.root_at g_tree 0 in
  let tests =
    [
      mk "e01-diamdom-1024" (fun () -> ignore (Diam_dom.run g_tree ~root:0 ~k:4));
      mk "e02-balanceddom-1024" (fun () -> ignore (Balanced_dom.run rooted));
      mk "e03-partition-1024" (fun () -> ignore (Dom_partition.run g_tree ~k:4));
      mk "e04-fastdom-t-1024" (fun () -> ignore (Fastdom_tree.run g_tree ~k:4));
      mk "e05-simple-mst-256" (fun () -> ignore (Simple_mst.run g_gnp ~k:4));
      mk "e06-fastdom-g-256" (fun () -> ignore (Fastdom_graph.run g_gnp ~k:4));
      mk "e07-pipeline-256" (fun () ->
          let dom = Fastdom_graph.run g_gnp ~k:4 in
          let fragment_of = Simple_mst.fragment_of_array g_gnp dom.forest in
          let bfs, _ = Bfs_tree.run g_gnp ~root:0 in
          ignore (Pipeline.run g_gnp ~bfs ~fragment_of));
      mk "e08-fast-mst-256" (fun () -> ignore (Fast_mst.run g_gnp));
      mk "e08-ghs-256" (fun () -> ignore (Ghs.run g_gnp));
      mk "e09-routing-grid" (fun () -> ignore (Kdom_apps.Routing.build g_grid ~k:3));
      mk "e10-directory-grid" (fun () -> ignore (Kdom_apps.Directory.place g_grid ~k:3));
      mk "e11-leader-256" (fun () -> ignore (Leader.elect g_gnp));
      mk "e12-simple-mst-congest-256" (fun () -> ignore (Simple_mst_congest.run g_gnp ~k:4));
      mk "async-bfs-256" (fun () ->
          ignore
            (Kdom_congest.Async.run_reliable ~rng:(seeded 300) g_gnp
               (Bfs_tree.algorithm g_gnp ~root:0)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:30 ~quota:(Time.second 0.25) ~stabilize:false () in
  let raw =
    Benchmark.all cfg
      [ Toolkit.Instance.monotonic_clock ]
      (Test.make_grouped ~name:"kdom" tests)
  in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name res acc -> (name, res) :: acc) results [] in
  pf "%-34s %14s@." "kernel" "time/run";
  List.iter
    (fun (name, res) ->
      match Analyze.OLS.estimates res with
      | Some (t :: _) -> pf "%-34s %11.3f ms@." name (t /. 1e6)
      | _ -> pf "%-34s %14s@." name "n/a")
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Engine throughput: the port-indexed mailbox engine against the legacy
   list-based simulator kept as [Runtime.run_reference].  Two kernels:

   - [flood]: for R rounds every node sends [| round |] to every neighbor,
     saturating both directions of every edge — measures messages/sec
     through the delivery path (port lookup, congestion checks, slot
     write, inbox build);
   - [token]: a token walks a path one hop per round while every other
     node steps on an empty inbox — measures rounds/sec of the per-round
     machinery (buffer swap, live sweep, compaction).

   Both backends execute the same node program, so the stats must agree
   exactly (checked).  Results are appended to BENCH_engine.json.  GNP is
   capped at n = 10_000 because the generator itself is O(n^2); the
   100k-node claim of the acceptance criterion runs on the grid. *)

(* Payloads are written straight into the packed send arena
   ([Engine.Emit.broadcast1], [Engine.Emit.frame1]), so a step allocates
   nothing. *)
let flood_algorithm ~rounds : int Kdom_congest.Engine.ealgorithm =
  let open Kdom_congest in
  {
    Engine.einit = (fun _ _ -> 0);
    estep =
      (fun _g ~round ~node:_ _st _inbox em ->
        if round > rounds then round
        else begin
          Engine.Emit.broadcast1 em round;
          round
        end);
    ehalted = (fun st -> st > rounds);
    (* every node sends every round: the schedule is genuinely dense *)
    ewake = Engine.always;
  }

let token_algorithm : int Kdom_congest.Engine.ealgorithm =
  let open Kdom_congest in
  {
    Engine.einit = (fun _ v -> if v = 0 then 1 else 0);
    estep =
      (fun g ~round:_ ~node st inbox em ->
        if st = 1 || not (Engine.Inbox.is_empty inbox) then begin
          let next = node + 1 in
          if next < Graph.n g then Engine.Emit.frame1 em ~dst:next node;
          2
        end
        else 0);
    ehalted = (fun st -> st = 2);
    (* [always] on purpose: this kernel measures the dense per-round
       machinery; the hinted variant lives in the sched bench below *)
    ewake = Kdom_congest.Engine.always;
  }

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [wall] plus the GC's allocation deltas over the timed closure:
   (result, secs, minor_words, promoted_words).  Minor words are the
   honest cost of a "zero-allocation" claim — [Gc.quick_stat] reads the
   counters without forcing a collection. *)
let wall_alloc f =
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let secs = Unix.gettimeofday () -. t0 in
  let s1 = Gc.quick_stat () in
  ( r,
    secs,
    s1.Gc.minor_words -. s0.Gc.minor_words,
    s1.Gc.promoted_words -. s0.Gc.promoted_words )

type engine_row = {
  er_kernel : string;
  er_family : string;
  er_n : int;
  er_m : int;
  er_rounds : int;
  er_messages : int;
  er_setup : float;          (* port-map (Engine.create) build time *)
  er_engine : float;
  er_minor : float;          (* minor words allocated by the engine run *)
  er_promoted : float;
  er_reference : float option;  (* None: baseline skipped (too slow) *)
}

let engine_case ~kernel ~family ~skip_reference g algo =
  let open Kdom_congest in
  let eng, setup = wall (fun () -> Engine.create g) in
  let (_, stats), engine_secs, minor, promoted =
    wall_alloc (fun () -> Engine.exec_emit eng algo)
  in
  let reference_secs =
    if skip_reference then None
    else begin
      let (_, rstats), secs = wall (fun () -> Runtime.run_reference g algo) in
      if rstats <> stats then
        failwith
          (Printf.sprintf "engine bench %s/%s: backend stats disagree" kernel
             family);
      Some secs
    end
  in
  {
    er_kernel = kernel;
    er_family = family;
    er_n = Graph.n g;
    er_m = Graph.m g;
    er_rounds = stats.Runtime.rounds;
    er_messages = stats.Runtime.messages;
    er_setup = setup;
    er_engine = engine_secs;
    er_minor = minor;
    er_promoted = promoted;
    er_reference = reference_secs;
  }

let engine_rows () =
  let grid n =
    let side = int_of_float (sqrt (float_of_int n)) in
    Generators.grid ~rng:(seeded (97 + n)) ~rows:side ~cols:side
  in
  let gnp n =
    Generators.gnp_connected ~rng:(seeded (89 + n))
      ~n
      ~p:(8.0 /. float_of_int n)
  in
  let path n = Generators.path ~rng:(seeded (83 + n)) n in
  List.concat
    [
      List.map
        (fun n ->
          engine_case ~kernel:"flood" ~family:"grid" ~skip_reference:false
            (grid n) (flood_algorithm ~rounds:12))
        [ 1_000; 10_000; 100_000 ];
      List.map
        (fun n ->
          engine_case ~kernel:"flood" ~family:"gnp" ~skip_reference:false
            (gnp n) (flood_algorithm ~rounds:12))
        [ 1_000; 10_000 ];
      List.map
        (fun n ->
          engine_case ~kernel:"flood" ~family:"path" ~skip_reference:false
            (path n) (flood_algorithm ~rounds:12))
        [ 1_000; 10_000; 100_000 ];
      (* token at 100k would step ~n^2/2 node programs in either backend;
         the per-round machinery is already resolved at 10k *)
      List.map
        (fun n ->
          engine_case ~kernel:"token" ~family:"path"
            ~skip_reference:(n > 1_000) (path n) token_algorithm)
        [ 1_000; 10_000 ];
    ]

let engine_json rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      let msgs_per_sec secs = float_of_int r.er_messages /. secs in
      let rounds_per_sec secs = float_of_int r.er_rounds /. secs in
      Buffer.add_string b
        (Printf.sprintf
           "  {\"kernel\": %S, \"family\": %S, \"n\": %d, \"m\": %d, \
            \"rounds\": %d, \"messages\": %d, \"setup_secs\": %.6f, \
            \"engine_secs\": %.6f, \"engine_msgs_per_sec\": %.0f, \
            \"engine_rounds_per_sec\": %.0f, \"minor_words\": %.0f, \
            \"promoted_words\": %.0f"
           r.er_kernel r.er_family r.er_n r.er_m r.er_rounds r.er_messages
           r.er_setup r.er_engine
           (msgs_per_sec r.er_engine)
           (rounds_per_sec r.er_engine)
           r.er_minor r.er_promoted);
      (match r.er_reference with
      | Some secs ->
          Buffer.add_string b
            (Printf.sprintf
               ", \"reference_secs\": %.6f, \"reference_msgs_per_sec\": \
                %.0f, \"speedup\": %.2f}"
               secs (msgs_per_sec secs) (secs /. r.er_engine))
      | None ->
          (* explicit marker, never a bare null float: consumers can test
             row.reference == "skipped" without a schema special case *)
          Buffer.add_string b ", \"reference\": \"skipped\"}"))
    rows;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let engine_bench () =
  header "ENGINE  mailbox-engine throughput"
    "port-indexed engine >= 3x reference messages/sec on the 100k-node grid";
  pf "%-7s %-5s %7s %8s %7s %9s %10s %10s %8s@." "kernel" "family" "n" "m"
    "rounds" "messages" "eng Mm/s" "ref Mm/s" "speedup";
  let rows = engine_rows () in
  List.iter
    (fun r ->
      let eng = float_of_int r.er_messages /. r.er_engine /. 1e6 in
      (match r.er_reference with
      | Some secs ->
          pf "%-7s %-5s %7d %8d %7d %9d %10.2f %10.2f %7.2fx@." r.er_kernel
            r.er_family r.er_n r.er_m r.er_rounds r.er_messages eng
            (float_of_int r.er_messages /. secs /. 1e6)
            (secs /. r.er_engine)
      | None ->
          pf "%-7s %-5s %7d %8d %7d %9d %10.2f %10s %8s@." r.er_kernel
            r.er_family r.er_n r.er_m r.er_rounds r.er_messages eng "-" "-"))
    rows;
  let oc = open_out "BENCH_engine.json" in
  output_string oc (engine_json rows);
  close_out oc;
  pf "@.wrote BENCH_engine.json (%d rows; gnp capped at 10k: O(n^2) generator)@."
    (List.length rows)

(* A fast correctness pass for CI: tiny instances of both kernels on both
   backends, asserting identical stats, plus one real algorithm. *)
let smoke () =
  let g = Generators.grid ~rng:(seeded 1) ~rows:16 ~cols:16 in
  let r1 =
    engine_case ~kernel:"flood" ~family:"grid" ~skip_reference:false g
      (flood_algorithm ~rounds:8)
  in
  let p = Generators.path ~rng:(seeded 2) 500 in
  let r2 =
    engine_case ~kernel:"token" ~family:"path" ~skip_reference:false p
      token_algorithm
  in
  let t = Generators.random_tree ~rng:(seeded 3) 200 in
  let d = Diam_dom.run t ~root:0 ~k:2 in
  if not (List.length (Diam_dom.dominating_list d) <= (200 + 2) / 3) then
    failwith "smoke: DiamDOM size bound violated";
  pf "smoke OK: flood %d msgs, token %d rounds, diamdom |D|=%d@."
    r1.er_messages r2.er_rounds
    (List.length (Diam_dom.dominating_list d))

(* ------------------------------------------------------------------ *)
(* SCHED — the sparse event-driven scheduler against the dense schedule
   ([~degrade:true] on the same engine: wake hints ignored, every live
   node stepped every round).  Three kernels whose active frontier is far
   below the live set:

   - [token]: a token walks a path, wake = OnMessage — one node acts per
     round, the canonical O(1) frontier;
   - [cast]: convergecast up a BFS tree — a node acts only when a child's
     partial aggregate arrives;
   - [census]: DiamDOM's census stage — a depth-d node acts only inside
     its [M-d, M-d+k] window (wake = At), so ~k+1 depth classes are
     active per round.

   Sparse and dense runs must produce identical final stats (checked —
   the hints are sound, so eliding sleeping nodes cannot change the
   execution); a third, untimed instrumented run collects the
   stepped/woken counters.  Results go to BENCH_sched.json. *)

type sched_row = {
  sr_kernel : string;
  sr_family : string;
  sr_n : int;
  sr_m : int;
  sr_rounds : int;
  sr_messages : int;
  sr_stepped : int;  (* total node steps under hints, init round included *)
  sr_woken : int;    (* timer-driven wake-ups *)
  sr_sparse : float;
  sr_dense : float;
  sr_minor : float;     (* minor words allocated by the sparse run *)
  sr_promoted : float;
}

let sched_case ~kernel ~family ?max_words g mk =
  let open Kdom_congest in
  let eng = Engine.create g in
  let (_, sstats), sparse, minor, promoted =
    wall_alloc (fun () -> Engine.exec_emit eng ?max_words (mk ()))
  in
  let (_, dstats), dense =
    wall (fun () -> Engine.exec_emit eng ?max_words ~degrade:true (mk ()))
  in
  if sstats <> dstats then
    failwith
      (Printf.sprintf "sched bench %s/%s: sparse and dense stats disagree"
         kernel family);
  let sink, rounds_info = Engine.Sink.counters () in
  ignore (Engine.exec_emit eng ?max_words ~sink (mk ()));
  let stepped, woken =
    List.fold_left
      (fun (s, w) (i : Engine.Sink.round_info) ->
        (s + i.counts.(Engine.Sink.stepped), w + i.counts.(Engine.Sink.woken)))
      (0, 0) (rounds_info ())
  in
  {
    sr_kernel = kernel;
    sr_family = family;
    sr_n = Graph.n g;
    sr_m = Graph.m g;
    sr_rounds = sstats.Runtime.rounds;
    sr_messages = sstats.Runtime.messages;
    sr_stepped = stepped;
    sr_woken = woken;
    sr_sparse = sparse;
    sr_dense = dense;
    sr_minor = minor;
    sr_promoted = promoted;
  }

let sparse_token_algorithm : int Kdom_congest.Engine.ealgorithm =
  { token_algorithm with ewake = (fun _ -> Kdom_congest.Engine.OnMessage) }

let convergecast_algorithm (info : Bfs_tree.info) :
    (int * int) Kdom_congest.Engine.ealgorithm =
  let open Kdom_congest in
  {
    (* state: (children still to hear from, best id seen); leaves fire on
       the init round, inner nodes when the last child reports *)
    Engine.einit = (fun _ v -> (List.length info.children.(v), v));
    estep =
      (fun _g ~round:_ ~node (pending, best) inbox em ->
        let pending = pending - Engine.Inbox.length inbox in
        let best = ref best in
        for i = 0 to Engine.Inbox.length inbox - 1 do
          best := max !best (Codec.get (Engine.Inbox.read inbox i))
        done;
        if pending = 0 then begin
          if info.parent.(node) >= 0 then
            Engine.Emit.frame1 em ~dst:info.parent.(node) !best;
          (-1, !best)
        end
        else (pending, !best));
    ehalted = (fun (pending, _) -> pending < 0);
    ewake = (fun _ -> Engine.OnMessage);
  }

let sched_rows () =
  let path n = Generators.path ~rng:(seeded (83 + n)) n in
  let tree n = Generators.random_tree ~rng:(seeded (79 + n)) n in
  let cast ~family g =
    let info, _ = Bfs_tree.run g ~root:0 in
    sched_case ~kernel:"cast" ~family g (fun () -> convergecast_algorithm info)
  in
  let census ~family ~k g =
    let info, _ = Bfs_tree.run g ~root:0 in
    sched_case ~kernel:"census" ~family
      ~max_words:Diam_dom.census_max_words g (fun () ->
        Diam_dom.census_algorithm info ~k)
  in
  [
    sched_case ~kernel:"token" ~family:"path" (path 10_000) (fun () ->
        sparse_token_algorithm);
    cast ~family:"path" (path 10_000);
    cast ~family:"random" (tree 10_000);
    census ~family:"path" ~k:2 (path 4_096);
    census ~family:"random" ~k:8 (tree 4_096);
  ]

let sched_json rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      let rps secs = float_of_int r.sr_rounds /. secs in
      Buffer.add_string b
        (Printf.sprintf
           "  {\"kernel\": %S, \"family\": %S, \"n\": %d, \"m\": %d, \
            \"rounds\": %d, \"messages\": %d, \"stepped\": %d, \
            \"woken\": %d, \"stepped_per_round\": %.2f, \
            \"sparse_secs\": %.6f, \"dense_secs\": %.6f, \
            \"sparse_rounds_per_sec\": %.0f, \"dense_rounds_per_sec\": %.0f, \
            \"speedup\": %.2f, \"minor_words\": %.0f, \
            \"promoted_words\": %.0f}"
           r.sr_kernel r.sr_family r.sr_n r.sr_m r.sr_rounds r.sr_messages
           r.sr_stepped r.sr_woken
           (float_of_int r.sr_stepped /. float_of_int (max 1 r.sr_rounds))
           r.sr_sparse r.sr_dense (rps r.sr_sparse) (rps r.sr_dense)
           (r.sr_dense /. r.sr_sparse)
           r.sr_minor r.sr_promoted))
    rows;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let sched_bench () =
  header "SCHED  sparse event-driven scheduler"
    "a round costs O(receivers + woken), not O(live): hinted engine vs the \
     same engine degraded to the dense schedule; token >= 5x at n=10k";
  pf "%-7s %-7s %7s %8s %8s %8s %9s %10s %10s %8s@." "kernel" "family" "n"
    "rounds" "stepped" "st/rnd" "woken" "sparse r/s" "dense r/s" "speedup";
  let rows = sched_rows () in
  List.iter
    (fun r ->
      pf "%-7s %-7s %7d %8d %8d %8.2f %9d %10.0f %10.0f %7.2fx@." r.sr_kernel
        r.sr_family r.sr_n r.sr_rounds r.sr_stepped
        (float_of_int r.sr_stepped /. float_of_int (max 1 r.sr_rounds))
        r.sr_woken
        (float_of_int r.sr_rounds /. r.sr_sparse)
        (float_of_int r.sr_rounds /. r.sr_dense)
        (r.sr_dense /. r.sr_sparse))
    rows;
  let oc = open_out "BENCH_sched.json" in
  output_string oc (sched_json rows);
  close_out oc;
  pf "@.wrote BENCH_sched.json (%d rows)@." (List.length rows)

(* CI gate: the token kernel must step O(1) nodes per round (exactly one
   after the init round), sparse and dense stats must agree, and the
   census window kernel must keep its frontier near k+1. *)
let sched_smoke () =
  let open Kdom_congest in
  let p = Generators.path ~rng:(seeded 2) 2_000 in
  let eng = Engine.create p in
  let sink, rounds_info = Engine.Sink.counters () in
  let _, sstats = Engine.exec_emit eng ~sink sparse_token_algorithm in
  let _, dstats = Engine.exec_emit eng ~degrade:true sparse_token_algorithm in
  if sstats <> dstats then
    failwith "sched-smoke: sparse and dense token stats disagree";
  let infos = rounds_info () in
  let total =
    List.fold_left
      (fun a (i : Engine.Sink.round_info) -> a + i.counts.(Engine.Sink.stepped))
      0 infos
  in
  let spr = float_of_int total /. float_of_int (max 1 sstats.Runtime.rounds) in
  if spr > 3.0 then
    failwith (Printf.sprintf "sched-smoke: token steps %.2f nodes/round > 3" spr);
  List.iter
    (fun (i : Engine.Sink.round_info) ->
      if i.round >= 1 && i.counts.(Engine.Sink.stepped) > 1 then
        failwith
          (Printf.sprintf
             "sched-smoke: token round %d stepped %d nodes (exactly 1 expected)"
             i.round i.counts.(Engine.Sink.stepped)))
    infos;
  let t = Generators.path ~rng:(seeded 5) 600 in
  let info, _ = Bfs_tree.run t ~root:0 in
  let k = 2 in
  let r =
    sched_case ~kernel:"census" ~family:"path"
      ~max_words:Diam_dom.census_max_words t (fun () ->
        Diam_dom.census_algorithm info ~k)
  in
  let cspr = float_of_int r.sr_stepped /. float_of_int (max 1 r.sr_rounds) in
  if cspr > float_of_int (4 * (k + 1)) then
    failwith
      (Printf.sprintf "sched-smoke: census steps %.2f nodes/round (O(k) expected)"
         cspr);
  pf "sched-smoke OK: token %.2f stepped/round (1 after init), census %.2f \
      stepped/round over %d rounds@."
    spr cspr r.sr_rounds

(* ------------------------------------------------------------------ *)
(* FAULTS — reliable delivery under loss: throughput and retransmission
   overhead vs drop rate on the 100k-node grid (flood kernel), appended to
   BENCH_faults.json.  The paper's §1.2 synchronizer charge is one message
   per edge per direction per simulated round; [sync/edge/pulse] measures
   the logical synchronizer traffic against that bound (acks + SAFEs,
   which stays ~2 per edge-direction-pulse regardless of loss), while
   [frames/logical] is what the lossy link layer adds on top:
   data + link-ack = 2 at drop 0, growing with retransmissions. *)

type fault_row = {
  fr_drop : float;
  fr_n : int;
  fr_m : int;
  fr_pulses : int;
  fr_alg : int;
  fr_sync : int;
  fr_frames : int;
  fr_retransmits : int;
  fr_dropped : int;
  fr_duplicated : int;
  fr_secs : float;
  fr_minor : float;
  fr_promoted : float;
}

let fault_case ~drop ~duplicate ~seed ~rounds g =
  let open Kdom_congest in
  let faults =
    if drop = 0.0 && duplicate = 0.0 then Faults.none
    else Faults.lossy ~drop ~duplicate ~seed ()
  in
  let (_, frep), secs, minor, promoted =
    wall_alloc (fun () ->
        Async.run_reliable ~rng:(seeded (seed + 1)) ~faults g
          (flood_algorithm ~rounds))
  in
  let r = frep.Async.report in
  {
    fr_drop = drop;
    fr_n = Graph.n g;
    fr_m = Graph.m g;
    fr_pulses = r.Async.pulses;
    fr_alg = r.Async.alg_messages;
    fr_sync = r.Async.sync_messages;
    fr_frames = frep.Async.frames;
    fr_retransmits = frep.Async.retransmits;
    fr_dropped = frep.Async.dropped;
    fr_duplicated = frep.Async.duplicated;
    fr_secs = secs;
    fr_minor = minor;
    fr_promoted = promoted;
  }

let faults_json rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      let logical = r.fr_alg + r.fr_sync in
      Buffer.add_string b
        (Printf.sprintf
           "  {\"drop\": %.2f, \"n\": %d, \"m\": %d, \"pulses\": %d, \
            \"alg_messages\": %d, \"sync_messages\": %d, \"frames\": %d, \
            \"retransmits\": %d, \"dropped\": %d, \"duplicated\": %d, \
            \"wall_secs\": %.3f, \"frames_per_logical\": %.3f, \
            \"sync_per_edge_pulse\": %.3f, \"frames_per_sec\": %.0f, \
            \"minor_words\": %.0f, \"promoted_words\": %.0f}"
           r.fr_drop r.fr_n r.fr_m r.fr_pulses r.fr_alg r.fr_sync r.fr_frames
           r.fr_retransmits r.fr_dropped r.fr_duplicated r.fr_secs
           (float_of_int r.fr_frames /. float_of_int (max 1 logical))
           (float_of_int r.fr_sync
           /. float_of_int (max 1 (2 * r.fr_m * r.fr_pulses)))
           (float_of_int r.fr_frames /. r.fr_secs)
           r.fr_minor r.fr_promoted))
    rows;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let faults_bench () =
  header "FAULTS  reliable delivery vs drop rate (grid, flood)"
    "quiescence at every drop rate; frames/logical = 2 + O(drop); \
     sync traffic stays ~1 msg/edge/direction/pulse (§1.2 charge)";
  pf "%5s %7s %8s %7s %9s %9s %9s %8s %9s %7s@." "drop" "n" "m" "pulses"
    "alg" "sync" "frames" "rtx" "frm/lgcl" "secs";
  let side = try int_of_string (Sys.getenv "KDOM_FAULTS_SIDE") with Not_found -> 316 in
  let g = Generators.grid ~rng:(seeded 131) ~rows:side ~cols:side in
  let rows =
    List.map
      (fun drop ->
        let r = fault_case ~drop ~duplicate:(drop /. 2.) ~seed:41 ~rounds:2 g in
        pf "%5.2f %7d %8d %7d %9d %9d %9d %8d %9.3f %7.2f@." r.fr_drop r.fr_n
          r.fr_m r.fr_pulses r.fr_alg r.fr_sync r.fr_frames r.fr_retransmits
          (float_of_int r.fr_frames /. float_of_int (max 1 (r.fr_alg + r.fr_sync)))
          r.fr_secs;
        r)
      [ 0.0; 0.05; 0.1; 0.2; 0.3 ]
  in
  let oc = open_out "BENCH_faults.json" in
  output_string oc (faults_json rows);
  close_out oc;
  pf "@.wrote BENCH_faults.json (%d rows)@." (List.length rows)

(* Fault-matrix smoke for CI: 20 fixed seeds, drop=0.2 dup=0.1 with
   reordering, all six message-level algorithms of {!Battery} (coloring
   and census on random trees, the rest on connected G(n,p)); every trial
   must be bit-identical to the synchronous run and pass the battery's
   output oracle. *)
let faults_smoke () =
  let open Kdom_congest in
  let trials = ref 0 in
  for seed = 0 to 19 do
    let n = 10 + (seed mod 8) in
    let k = 1 + (seed mod 3) in
    let t = Generators.random_tree ~rng:(seeded (seed + 900)) n in
    let g = Generators.gnp_connected ~rng:(seeded (seed + 950)) ~n ~p:0.25 in
    let faults = Faults.lossy ~drop:0.2 ~duplicate:0.1 ~seed:(seed + 7) () in
    List.iter
      (fun name ->
        let host = if name = "coloring" || name = "census" then t else g in
        match Battery.case host ~k name with
        | None -> ()
        | Some (Chaos.Case (what, max_words, mk, oracle)) ->
          let sync_states, _ = Runtime.run ~max_words host (mk ()) in
          let states, _ =
            Async.run_reliable ~rng:(seeded (seed + 71)) ~faults ~max_words host
              (mk ())
          in
          if states <> sync_states then
            failwith (what ^ ": faulty states differ from the synchronous run");
          oracle states;
          incr trials)
      Battery.names
  done;
  pf "faults-smoke OK: %d trials (20 seeds, drop=0.2 dup=0.1, 6 algorithms) \
      bit-identical + oracle-clean@."
    !trials

(* ------------------------------------------------------------------ *)
(* REPAIR — the self-healing maintenance layer under permanent churn:
   detection latency and repair rounds vs k (scenario A: a dominator
   fail-stop; scenario B: a tree-edge cut, which on a tree host severs the
   whole subtree and forces a takeover election), plus the steady-state
   heartbeat overhead, appended to BENCH_repair.json.  Both latencies are
   asserted against their configured lease multiples: detection within
   (lease+1) heartbeat periods plus the wave's propagation slack, repair
   within two lease cycles plus the takeover flood — all O(k) for
   beta = k+1 and the partition's O(k) radius. *)

type repair_row = {
  rp_scenario : string;
  rp_n : int;
  rp_k : int;
  rp_beta : int;
  rp_lease : int;
  rp_dmax : int;
  rp_detect : int;       (* first suspicion - fault round; -1 = steady *)
  rp_detect_bound : int;
  rp_repair : int;       (* last repair - first suspicion; -1 = steady *)
  rp_repair_bound : int;
  rp_hb : int;
  rp_repair_frames : int;
  rp_rounds : int;
  rp_secs : float;
  rp_minor : float;
  rp_promoted : float;
}

let repair_case ~scenario g ~k ~events ~fault_round =
  let open Kdom_congest in
  let plan = Dom_partition.repair_plan g (Dom_partition.run g ~k) in
  let maxdepth = Array.fold_left max 0 plan.Repair.depth in
  let beta = max 2 (k + 1) and lease = 2 in
  let dmax = Repair.default_dmax plan in
  let detect_bound = ((lease + 1) * beta) + (2 * maxdepth) + 2 in
  let repair_bound = (2 * lease * beta) + (4 * dmax) + 18 in
  let horizon = fault_round + detect_bound + repair_bound + beta + 2 in
  let cfg = { Repair.plan; beta; lease; dmax; horizon } in
  let e = Engine.create g in
  let churn = Engine.Churn.compile e events in
  let (states, stats), secs, minor, promoted =
    wall_alloc (fun () -> Repair.run ~churn e cfg)
  in
  let rep = Repair.decode states in
  let alive = Engine.Churn.final_alive churn in
  let centers = ref [] in
  Array.iteri
    (fun v d -> if alive.(v) && d = v then centers := v :: !centers)
    rep.Repair.dominator_of;
  Oracle.expect_ok
    (Printf.sprintf "repair bench (%s, k=%d)" scenario k)
    (Oracle.eventual_k_domination g ~alive
       ~dead_edges:(Engine.Churn.final_edges_down churn)
       ~centers:!centers ~bound:(Graph.n g));
  let detect, repair =
    if events = [] then begin
      if rep.Repair.suspicions > 0 || rep.Repair.repair_frames > 0 then
        failwith
          (Printf.sprintf
             "repair bench: steady run at k=%d generated repair traffic" k);
      (-1, -1)
    end
    else begin
      if rep.Repair.first_suspect < 0 then
        failwith
          (Printf.sprintf "repair bench: %s at k=%d was never detected"
             scenario k);
      let detect = rep.Repair.first_suspect - fault_round in
      let repair = max 0 (rep.Repair.last_repair - rep.Repair.first_suspect) in
      if detect > detect_bound then
        failwith
          (Printf.sprintf
             "repair bench: %s at k=%d detected in %d rounds > bound %d"
             scenario k detect detect_bound);
      if repair > repair_bound then
        failwith
          (Printf.sprintf
             "repair bench: %s at k=%d repaired in %d rounds > bound %d"
             scenario k repair repair_bound);
      (detect, repair)
    end
  in
  {
    rp_scenario = scenario;
    rp_n = Graph.n g;
    rp_k = k;
    rp_beta = beta;
    rp_lease = lease;
    rp_dmax = dmax;
    rp_detect = detect;
    rp_detect_bound = detect_bound;
    rp_repair = repair;
    rp_repair_bound = repair_bound;
    rp_hb = rep.Repair.hb_frames;
    rp_repair_frames = rep.Repair.repair_frames;
    rp_rounds = stats.Kdom_congest.Engine.rounds;
    rp_secs = secs;
    rp_minor = minor;
    rp_promoted = promoted;
  }

(* The two faulty scenarios target the structure, not random nodes: the
   busiest dominator, and the deepest cluster-tree edge. *)
let busiest_dominator g (plan : Kdom_congest.Repair.plan) =
  let count = Array.make (Graph.n g) 0 in
  Array.iter (fun d -> count.(d) <- count.(d) + 1) plan.dominator;
  let dom = ref 0 in
  Array.iteri (fun v c -> if c > count.(!dom) then dom := v) count;
  !dom

let deepest_tree_edge (plan : Kdom_congest.Repair.plan) =
  let child = ref (-1) in
  Array.iteri
    (fun v p ->
      if p >= 0 && (!child < 0 || plan.depth.(v) > plan.depth.(!child)) then
        child := v)
    plan.parent;
  (!child, plan.parent.(!child))

let repair_rows ~n ~ks ~seed =
  let fault_round = 7 in
  List.concat_map
    (fun k ->
      let g = Generators.random_tree ~rng:(seeded (seed + k)) n in
      let plan = Dom_partition.repair_plan g (Dom_partition.run g ~k) in
      let dom = busiest_dominator g plan in
      let child, parent = deepest_tree_edge plan in
      let open Kdom_congest.Engine in
      [
        repair_case ~scenario:"steady" g ~k ~events:[] ~fault_round;
        repair_case ~scenario:"dominator-crash" g ~k
          ~events:[ Churn.Crash { node = dom; at = fault_round } ]
          ~fault_round;
        repair_case ~scenario:"edge-cut" g ~k
          ~events:
            [
              Churn.Edge_down { src = parent; dst = child; at = fault_round };
              Churn.Edge_down { src = child; dst = parent; at = fault_round };
            ]
          ~fault_round;
      ])
    ks

let repair_json rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "  {\"scenario\": %S, \"n\": %d, \"k\": %d, \"beta\": %d, \
            \"lease\": %d, \"dmax\": %d, \"detection_latency\": %d, \
            \"detection_bound\": %d, \"repair_rounds\": %d, \
            \"repair_bound\": %d, \"hb_frames\": %d, \"repair_frames\": %d, \
            \"rounds\": %d, \"hb_per_round\": %.2f, \"wall_secs\": %.3f, \
            \"minor_words\": %.0f, \"promoted_words\": %.0f}"
           r.rp_scenario r.rp_n r.rp_k r.rp_beta r.rp_lease r.rp_dmax
           r.rp_detect r.rp_detect_bound r.rp_repair r.rp_repair_bound r.rp_hb
           r.rp_repair_frames r.rp_rounds
           (float_of_int r.rp_hb /. float_of_int (max 1 r.rp_rounds))
           r.rp_secs r.rp_minor r.rp_promoted))
    rows;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let repair_bench () =
  header "REPAIR  self-healing k-dominating sets under churn"
    "detection within (lease+1) heartbeat periods + wave slack; repair \
     within two lease cycles + the takeover flood; heartbeat overhead \
     identical steady vs faulty (beta-periodic waves)";
  pf "%-16s %6s %3s %5s %5s %7s %7s %7s %7s %9s %8s %7s@." "scenario" "n" "k"
    "beta" "dmax" "detect" "bound" "repair" "bound" "hb/round" "rep-frm" "secs";
  let n = try int_of_string (Sys.getenv "KDOM_REPAIR_N") with Not_found -> 2048 in
  let rows = repair_rows ~n ~ks:[ 1; 2; 4; 8 ] ~seed:217 in
  List.iter
    (fun r ->
      pf "%-16s %6d %3d %5d %5d %7d %7d %7d %7d %9.2f %8d %7.2f@." r.rp_scenario
        r.rp_n r.rp_k r.rp_beta r.rp_dmax r.rp_detect r.rp_detect_bound
        r.rp_repair r.rp_repair_bound
        (float_of_int r.rp_hb /. float_of_int (max 1 r.rp_rounds))
        r.rp_repair_frames r.rp_secs)
    rows;
  let oc = open_out "BENCH_repair.json" in
  output_string oc (repair_json rows);
  close_out oc;
  pf "@.wrote BENCH_repair.json (%d rows)@." (List.length rows)

(* Churn/repair smoke for CI: small trees, both fault scenarios plus the
   steady baseline, every latency within its configured lease bound and
   every final state oracle-clean. *)
let repair_smoke () =
  let rows = repair_rows ~n:192 ~ks:[ 2; 4 ] ~seed:611 in
  let faulty = List.filter (fun r -> r.rp_detect >= 0) rows in
  let worst f = List.fold_left (fun a r -> max a (f r)) 0 faulty in
  pf
    "repair-smoke OK: %d scenarios (n=192, k=2,4); worst detection %d rounds, \
     worst repair %d rounds, all within lease bounds, oracle-clean@."
    (List.length rows) (worst (fun r -> r.rp_detect))
    (worst (fun r -> r.rp_repair))

(* ------------------------------------------------------------------ *)
(* TRACE-OVERHEAD — the engine's zero-dispatch guarantee: running with the
   default sink and with an explicit [Sink.null] take the same hot path
   (physical-equality guard in [exec]), so their times must agree to noise.
   A live [Trace] sink is also measured, informationally.  Trials are
   interleaved and the minimum kept, so clock drift and scheduler noise hit
   both sides equally. *)

let trace_overhead ~smoke () =
  let open Kdom_congest in
  header "TRACE  instrumentation overhead (grid, flood)"
    "Sink.null path == default path (same code, ~0 delta); live Trace sink \
     measured for reference";
  let side = if smoke then 110 else 128 in
  let rounds = if smoke then 20 else 24 in
  let g = Generators.grid ~rng:(seeded 171) ~rows:side ~cols:side in
  let eng = Engine.create g in
  let algo = flood_algorithm ~rounds in
  let run_default () = ignore (Engine.exec_emit eng algo) in
  let run_null () = ignore (Engine.exec_emit eng ~sink:Engine.Sink.null algo) in
  let run_traced () =
    let tr = Trace.create () in
    ignore (Engine.exec_emit eng ~sink:(Trace.sink tr) algo)
  in
  run_default ();
  run_null ();
  (* warm-up: page in buffers, trigger any lazy setup *)
  let trials = if smoke then 13 else 15 in
  let timed f =
    (* settle the heap first so one pass's garbage can't tax the next;
       time both wall (reported) and CPU (asserted — wall clock in a shared
       container jitters far beyond 2%, CPU time does not see steal time) *)
    Gc.full_major ();
    let a0 = Gc.allocated_bytes () in
    let _, w = wall f in
    (w, Gc.allocated_bytes () -. a0)
  in
  let best_default = ref infinity and best_null = ref infinity in
  let best_traced = ref infinity in
  let alloc_default = ref 0.0 and alloc_null = ref 0.0 in
  let alloc_traced = ref 0.0 in
  for i = 0 to trials - 1 do
    (* alternate the pair order so any drift hits both sides equally *)
    let (w1, a1), (w2, a2) =
      if i land 1 = 0 then
        let r1 = timed run_default in
        (r1, timed run_null)
      else
        let r2 = timed run_null in
        (timed run_default, r2)
    in
    if w1 < !best_default then best_default := w1;
    if w2 < !best_null then best_null := w2;
    alloc_default := a1;
    alloc_null := a2
  done;
  for _ = 1 to if smoke then 5 else trials do
    let w3, a3 = timed run_traced in
    if w3 < !best_traced then best_traced := w3;
    alloc_traced := a3
  done;
  let _, stats = Engine.exec_emit eng algo in
  let pct a b = 100.0 *. (a -. b) /. b in
  pf "workload: %dx%d grid, %d rounds, %d messages@." side side
    stats.Kdom_congest.Runtime.rounds stats.Kdom_congest.Runtime.messages;
  let mb b = b /. 1_048_576.0 in
  pf "default sink      : %8.2f ms  %8.1f MB allocated@." (1000.0 *. !best_default)
    (mb !alloc_default);
  pf "explicit Sink.null: %8.2f ms  %8.1f MB  (%+.2f%% wall, %+.3f%% alloc vs default)@."
    (1000.0 *. !best_null) (mb !alloc_null)
    (pct !best_null !best_default)
    (pct !alloc_null !alloc_default);
  pf "live Trace sink   : %8.2f ms  %8.1f MB  (%+.2f%% wall vs default)@."
    (1000.0 *. !best_traced) (mb !alloc_traced)
    (pct !best_traced !best_default);
  if smoke then begin
    (* wall time in a shared container jitters well past 2%, so the hard
       assertion is on allocation — bit-for-bit deterministic, and the only
       cost a sink can add to the engine's per-message hot loop *)
    let delta = abs_float (pct !alloc_null !alloc_default) in
    if delta > 2.0 then
      failwith
        (Printf.sprintf
           "trace-overhead smoke: Sink.null path allocates %.3f%% off the \
            default path (> 2%%)"
           delta);
    pf "@.trace-overhead smoke OK: Sink.null alloc delta |%.3f%%| <= 2%%@." delta
  end

(* ------------------------------------------------------------------ *)
(* PAR — the engine's round loop on d > 1 shards ([Engine.exec_emit ~domains])
   against its one-shard case on large instances.  Every run is asserted
   bit-identical to the [domains = 1] baseline (states and stats), so the
   table measures pure sharding overhead/scaling, never divergence.

   Honesty note: the JSON records the host's recommended domain count.
   On a single-core host several shards cannot beat one — the table then
   quantifies the barrier + shard bookkeeping overhead, which is exactly
   what a reader needs to know before turning [~domains] on. *)

type par_row = {
  pr_kernel : string;
  pr_family : string;
  pr_n : int;
  pr_m : int;
  pr_domains : int;
  pr_rounds : int;
  pr_messages : int;
  pr_secs : float;
  pr_speedup : float; (* domains=1 secs / this run's secs *)
  pr_minor : float;
  pr_promoted : float;
}

(* A multi-domain row on a host without enough cores to back it cannot
   show a speedup — it measures barrier + shard bookkeeping overhead
   under oversubscription.  Such rows are tagged in the JSON and exempt
   from the speedup assertion in [par_bench]. *)
let par_undersubscribed r =
  r.pr_domains > Domain.recommended_domain_count ()

let par_domain_counts = [ 1; 2; 4 ]

(* [partition_for], when given, maps a domain count to an explicit shard
   assignment (degree-balanced LPT); otherwise the engine's contiguous
   default split is used. *)
let par_case ~kernel ~family ?partition_for g mk =
  let open Kdom_congest in
  let eng = Engine.create g in
  let base = ref None in
  List.map
    (fun domains ->
      let partition = Option.map (fun f -> f domains) partition_for in
      let (states, stats), secs, minor, promoted =
        wall_alloc (fun () -> Engine.exec_emit ?partition ~domains eng (mk ()))
      in
      let bsecs =
        match !base with
        | None ->
            base := Some (states, stats, secs);
            secs
        | Some (bstates, bstats, bsecs) ->
            if states <> bstates || stats <> bstats then
              failwith
                (Printf.sprintf
                   "par bench %s/%s: domains=%d diverges from the domains=1 \
                    run"
                   kernel family domains);
            bsecs
      in
      {
        pr_kernel = kernel;
        pr_family = family;
        pr_n = Graph.n g;
        pr_m = Graph.m g;
        pr_domains = domains;
        pr_rounds = stats.Runtime.rounds;
        pr_messages = stats.Runtime.messages;
        pr_secs = secs;
        pr_speedup = bsecs /. secs;
        pr_minor = minor;
        pr_promoted = promoted;
      })
    par_domain_counts

let par_rows ~smoke () =
  let acc = ref [] in
  let add rs = acc := !acc @ rs in
  let side = if smoke then 64 else 1000 in
  let g = Generators.grid ~rng:(seeded 7) ~rows:side ~cols:side in
  add
    (par_case ~kernel:"flood" ~family:"grid" g (fun () ->
         flood_algorithm ~rounds:(if smoke then 8 else 3)));
  let n = if smoke then 4_000 else 1_000_000 in
  (* radius for expected average degree ~6: pi r^2 n = 6 *)
  let radius = sqrt (6.0 /. (Float.pi *. float_of_int n)) in
  let rg = Generators.random_geometric ~rng:(seeded 8) ~n ~radius in
  add
    (par_case ~kernel:"flood" ~family:"rgg" rg (fun () ->
         flood_algorithm ~rounds:(if smoke then 8 else 3)));
  (* the same irregular family under the degree-balanced LPT partition *)
  add
    (par_case ~kernel:"flood" ~family:"rgg-lpt"
       ~partition_for:(fun shards -> Generators.shard_partition rg ~shards)
       rg
       (fun () -> flood_algorithm ~rounds:(if smoke then 8 else 3)));
  (* a sparse-frontier kernel: one active node per round, so this row is a
     pure measurement of the per-round barrier cost *)
  let p = Generators.path ~rng:(seeded 9) (if smoke then 2_000 else 20_000) in
  add (par_case ~kernel:"token" ~family:"path" p (fun () -> token_algorithm));
  !acc

let par_json rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"host_recommended_domains\": %d,\n \"rows\": [\n"
       (Domain.recommended_domain_count ()));
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "  {\"kernel\": %S, \"family\": %S, \"n\": %d, \"m\": %d, \
            \"domains\": %d, \"rounds\": %d, \"messages\": %d, \"secs\": \
            %.6f, \"secs_per_round\": %.9f, \"speedup_vs_seq\": %.3f, \
            \"minor_words\": %.0f, \"promoted_words\": %.0f%s}"
           r.pr_kernel r.pr_family r.pr_n r.pr_m r.pr_domains r.pr_rounds
           r.pr_messages r.pr_secs
           (r.pr_secs /. float_of_int (max 1 r.pr_rounds))
           r.pr_speedup r.pr_minor r.pr_promoted
           (* mark rows the host could not actually parallelize, so a
              reader never mistakes oversubscription overhead for an
              executor slowdown *)
           (if par_undersubscribed r then ", \"undersubscribed\": true"
            else "")))
    rows;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let par_bench () =
  header "PAR  sharded executor scaling"
    "run ~domains:d is bit-identical to ~domains:1 (asserted)";
  pf "host recommended domains: %d@." (Domain.recommended_domain_count ());
  pf "%-7s %-8s %8s %8s %7s %7s %10s %12s %8s@." "kernel" "family" "n" "m"
    "domains" "rounds" "secs" "ms/round" "speedup";
  let rows = par_rows ~smoke:false () in
  List.iter
    (fun r ->
      pf "%-7s %-8s %8d %8d %7d %7d %10.3f %12.4f %7.2fx%s@." r.pr_kernel
        r.pr_family r.pr_n r.pr_m r.pr_domains r.pr_rounds r.pr_secs
        (1000.0 *. r.pr_secs /. float_of_int (max 1 r.pr_rounds))
        r.pr_speedup
        (if par_undersubscribed r then "  (undersubscribed)" else ""))
    rows;
  (* speedup floor on the dense 1M-node rows only, and only where the
     host actually has the cores — undersubscribed rows are exempt *)
  List.iter
    (fun r ->
      if
        (not (par_undersubscribed r))
        && r.pr_domains > 1
        && r.pr_kernel = "flood"
        && r.pr_n >= 1_000_000
        && r.pr_speedup < 1.0
      then
        failwith
          (Printf.sprintf
             "par bench %s/%s: domains=%d ran at %.2fx vs domains=1 on a \
              host recommending %d domains"
             r.pr_kernel r.pr_family r.pr_domains r.pr_speedup
             (Domain.recommended_domain_count ())))
    rows;
  (match List.filter par_undersubscribed rows with
  | [] -> ()
  | exempt ->
      pf
        "note: %d rows exceed the host's %d recommended domains — tagged \
         \"undersubscribed\" and exempt from the speedup floor@."
        (List.length exempt)
        (Domain.recommended_domain_count ()));
  let oc = open_out "BENCH_par.json" in
  output_string oc (par_json rows);
  close_out oc;
  pf "@.wrote BENCH_par.json (%d rows)@." (List.length rows)

(* CI pass: small instances, every row still asserted bit-identical to the
   domains=1 baseline inside [par_case]. *)
let par_smoke () =
  let rows = par_rows ~smoke:true () in
  List.iter
    (fun r ->
      pf "par %-7s %-8s domains=%d rounds=%d msgs=%d %.3fs@." r.pr_kernel
        r.pr_family r.pr_domains r.pr_rounds r.pr_messages r.pr_secs)
    rows;
  pf "@.par smoke OK: %d rows, domains in {1,2,4} all bit-identical@."
    (List.length rows)

(* ------------------------------------------------------------------ *)
(* DYNAMIC — live dynamic-graph maintenance: incremental repair
   (windowed [Repair.run] + per-cluster watchdog rebuilds) against the
   counterfactual full-FastDOM recompute at every checkpoint, as the
   churn rate sweeps over three graph families (grid, random geometric,
   preferential attachment).  The oracle must be clean at every
   checkpoint, and at low/medium churn the incremental path must beat
   the recompute on total rounds — the headline claim of the dynamic
   layer.  Results go to BENCH_dynamic.json. *)

type dyn_row = {
  dy_family : string;
  dy_rate : string;
  dy_base_n : int;
  dy_union_n : int;
  dy_union_m : int;
  dy_k : int;
  dy_events : int;
  dy_windows : int;
  dy_suspicions : int;
  dy_reparents : int;
  dy_watchdog : int;
  dy_incremental : int;
  dy_recompute : int;
  dy_oracle_failures : int;
  dy_fastdom0 : int;  (* rounds of the initial static construction *)
  dy_secs : float;
  dy_minor : float;
  dy_promoted : float;
}

(* churn volumes per rate label, scaled down for the smoke pass *)
let dyn_rates ~smoke =
  let s x = if smoke then max 1 (x / 2) else x in
  [
    ("low", (s 2, s 2, s 1, s 1, 0));
    ("medium", (s 4, s 4, s 3, s 3, s 1));
    ("high", (s 8, s 8, s 6, s 6, s 2));
  ]

let dyn_family ~smoke name seed =
  match name with
  | "grid" ->
    let side = if smoke then 8 else 16 in
    Generators.grid ~rng:(seeded seed) ~rows:side ~cols:side
  | "rgg" ->
    let n = if smoke then 64 else 256 in
    let radius = sqrt (6.0 /. (Float.pi *. float_of_int n)) in
    Generators.random_geometric ~rng:(seeded seed) ~n ~radius
  | "pa" ->
    let n = if smoke then 64 else 256 in
    Generators.preferential_attachment ~rng:(seeded seed) ~n ~m:2
  | f -> failwith ("dynamic bench: unknown family " ^ f)

let dyn_case ~smoke ~family ~rate (arrivals, insertions, cuts, crashes, departs)
    ~k ~seed =
  let base = dyn_family ~smoke family seed in
  let sc =
    Dyn_dom.scenario base ~k ~seed ~arrivals ~insertions ~cuts ~crashes
      ~departs ~bursts:(if smoke then 3 else 4) ~quiescence:10
  in
  let rep, secs, minor, promoted = wall_alloc (fun () -> Dyn_dom.run sc) in
  let open Kdom_congest in
  let sum f = List.fold_left (fun a w -> a + f w) 0 rep.Dynamic.windows in
  let oracle = sum (fun w -> w.Dynamic.w_oracle_failures) in
  if oracle > 0 then
    failwith
      (Printf.sprintf
         "dynamic bench %s/%s: %d oracle failures at the checkpoints" family
         rate oracle);
  {
    dy_family = family;
    dy_rate = rate;
    dy_base_n = sc.Dyn_dom.base_n;
    dy_union_n = Graph.n sc.Dyn_dom.union;
    dy_union_m = Graph.m sc.Dyn_dom.union;
    dy_k = k;
    dy_events = List.length sc.Dyn_dom.script.Kdom_congest.Faults.script_events;
    dy_windows = List.length rep.Dynamic.windows;
    dy_suspicions = sum (fun w -> w.Dynamic.w_suspicions);
    dy_reparents = sum (fun w -> w.Dynamic.w_reparents);
    dy_watchdog = sum (fun w -> w.Dynamic.w_watchdog_fired);
    dy_incremental = rep.Dynamic.total_incremental;
    dy_recompute = rep.Dynamic.total_recompute;
    dy_oracle_failures = oracle;
    dy_fastdom0 = sc.Dyn_dom.fastdom_rounds;
    dy_secs = secs;
    dy_minor = minor;
    dy_promoted = promoted;
  }

let dyn_rows ~smoke () =
  let k = 2 in
  List.concat_map
    (fun (family, seed) ->
      List.map
        (fun (rate, vols) -> dyn_case ~smoke ~family ~rate vols ~k ~seed)
        (dyn_rates ~smoke))
    [ ("grid", 311); ("rgg", 313); ("pa", 317) ]

let dyn_assert_incremental_wins rows =
  List.iter
    (fun r ->
      if r.dy_rate <> "high" && r.dy_incremental >= r.dy_recompute then
        failwith
          (Printf.sprintf
             "dynamic bench %s/%s: incremental %d rounds did not beat the \
              full recompute %d"
             r.dy_family r.dy_rate r.dy_incremental r.dy_recompute))
    rows

let dyn_json rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "  {\"family\": %S, \"rate\": %S, \"base_n\": %d, \"union_n\": %d, \
            \"union_m\": %d, \"k\": %d, \"events\": %d, \"windows\": %d, \
            \"suspicions\": %d, \"reparents\": %d, \"watchdog_fired\": %d, \
            \"incremental_rounds\": %d, \"recompute_rounds\": %d, \
            \"speedup_vs_recompute\": %.2f, \"oracle_failures\": %d, \
            \"fastdom_rounds_initial\": %d, \"wall_secs\": %.3f, \
            \"minor_words\": %.0f, \"promoted_words\": %.0f}"
           r.dy_family r.dy_rate r.dy_base_n r.dy_union_n r.dy_union_m r.dy_k
           r.dy_events r.dy_windows r.dy_suspicions r.dy_reparents
           r.dy_watchdog r.dy_incremental r.dy_recompute
           (float_of_int r.dy_recompute /. float_of_int (max 1 r.dy_incremental))
           r.dy_oracle_failures r.dy_fastdom0 r.dy_secs r.dy_minor
           r.dy_promoted))
    rows;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let dyn_print rows =
  pf "%-6s %-7s %7s %7s %3s %6s %4s %6s %5s %8s %8s %8s %6s@." "family" "rate"
    "n" "m" "k" "events" "win" "repar" "wdog" "inc-rnd" "rec-rnd" "speedup"
    "secs";
  List.iter
    (fun r ->
      pf "%-6s %-7s %7d %7d %3d %6d %4d %6d %5d %8d %8d %7.2fx %6.2f@."
        r.dy_family r.dy_rate r.dy_union_n r.dy_union_m r.dy_k r.dy_events
        r.dy_windows r.dy_reparents r.dy_watchdog r.dy_incremental
        r.dy_recompute
        (float_of_int r.dy_recompute /. float_of_int (max 1 r.dy_incremental))
        r.dy_secs)
    rows

let dynamic_bench () =
  header "DYNAMIC  incremental maintenance vs full recompute under churn"
    "oracle-clean at every quiescent checkpoint; at low/medium churn the \
     incremental path (windowed repair + local watchdog rebuilds) beats a \
     per-checkpoint FastDOM recompute on total rounds";
  let rows = dyn_rows ~smoke:false () in
  dyn_assert_incremental_wins rows;
  dyn_print rows;
  let oc = open_out "BENCH_dynamic.json" in
  output_string oc (dyn_json rows);
  close_out oc;
  pf "@.wrote BENCH_dynamic.json (%d rows)@." (List.length rows)

(* CI pass: the reduced sweep, executed sequentially and re-executed on
   4 domains — totals must agree exactly (the engine's bit-identical
   sharding guarantee, observed end to end through the dynamic layer). *)
let dynamic_smoke () =
  let open Kdom_congest in
  let fingerprint rows =
    List.map (fun r -> (r.dy_family, r.dy_rate, r.dy_incremental, r.dy_recompute, r.dy_reparents)) rows
  in
  let saved = !Engine.default_domains in
  Fun.protect
    ~finally:(fun () -> Engine.default_domains := saved)
    (fun () ->
      Engine.default_domains := 1;
      let rows = dyn_rows ~smoke:true () in
      dyn_assert_incremental_wins rows;
      dyn_print rows;
      Engine.default_domains := 4;
      let rows4 = dyn_rows ~smoke:true () in
      if fingerprint rows <> fingerprint rows4 then
        failwith "dynamic smoke: domains=4 sweep diverges from sequential";
      let oc = open_out "BENCH_dynamic.json" in
      output_string oc (dyn_json rows);
      close_out oc;
      pf
        "@.dynamic smoke OK: %d rows, oracle-clean, incremental beats \
         recompute at low/medium churn, domains=4 bit-identical@."
        (List.length rows))

(* ------------------------------------------------------------------ *)
(* SERVE — the live serving layer (E15): request throughput and hop/latency
   percentiles through the cluster forest, at 100k..1M nodes, with and
   without dominators crashing mid-traffic.  Plans come from a linear-time
   greedy ball cover + Voronoi trees (Cluster.plan_of_centers): the point
   here is serving cost over a (k+1, O(k)) forest, not the FastDOM
   construction, which E1-E12 already price.  Results go to
   BENCH_serve.json. *)

(* Greedy maximal k-ball cover: scan a shuffled order, make every still
   uncovered node a center and mark its k-ball.  Centers end up pairwise
   > k apart, so the result is k-dominating with O(m) total ball work on
   bounded-degree families. *)
let cheap_centers g ~k ~seed =
  let n = Graph.n g in
  let order = Array.init n Fun.id in
  Rng.shuffle (seeded seed) order;
  let covered = Array.make n false in
  let centers = ref [] in
  let q = Queue.create () in
  Array.iter
    (fun v ->
      if not covered.(v) then begin
        centers := v :: !centers;
        let dist = Hashtbl.create 64 in
        Hashtbl.replace dist v 0;
        covered.(v) <- true;
        Queue.add v q;
        while not (Queue.is_empty q) do
          let x = Queue.pop q in
          let dx = Hashtbl.find dist x in
          if dx < k then
            Array.iter
              (fun (u, _) ->
                if not (Hashtbl.mem dist u) then begin
                  Hashtbl.replace dist u (dx + 1);
                  covered.(u) <- true;
                  Queue.add u q
                end)
              (Graph.neighbors g x)
        done
      end)
    order;
  List.rev !centers

type serve_row = {
  sv_family : string;
  sv_mix : string;
  sv_n : int;
  sv_m : int;
  sv_k : int;
  sv_requests : int;
  sv_crashes : int;
  sv_answered : int;
  sv_rejected : int;
  sv_lost : int;
  sv_frames : int;
  sv_qpeak : int;
  sv_hops_p50 : int;
  sv_hops_p99 : int;
  sv_lat_p50 : int;
  sv_lat_p99 : int;
  sv_rounds : int;
  sv_secs : float;
  sv_minor : float;
  sv_promoted : float;
}

let serve_case ~family ~mix_name g ~k ~seed ~requests ~crashes =
  let open Kdom_congest in
  let plan = Cluster.plan_of_centers g (cheap_centers g ~k ~seed:(seed + 1)) in
  let mix =
    match mix_name with
    | "uniform" -> Workload.uniform
    | "hotspot" -> Workload.hotspot
    | _ -> invalid_arg "serve_case: mix"
  in
  let window = 32 in
  let reqs = Workload.generate g plan mix ~seed:(seed + 2) ~requests ~window in
  let dmax = Array.fold_left max 0 plan.Repair.depth in
  (* worst per-origin serialization: a hotspot origin drains one frame per
     round, so the horizon and the retry timer must cover its whole batch *)
  let batch =
    let per = Array.make (Graph.n g) 0 in
    Array.iter
      (fun (r : Serve.request) -> per.(r.Serve.origin) <- per.(r.Serve.origin) + 1)
      reqs;
    Array.fold_left max 0 per
  in
  let retry_after = (4 * dmax) + 8 + batch in
  let retries = 2 in
  let horizon = window + batch + (4 * dmax) + ((retries + 1) * retry_after) + 32 in
  let cfg = { Serve.plan; requests = reqs; horizon; retry_after; retries } in
  let e = Engine.create g in
  let label = Printf.sprintf "serve bench (%s/%s, n=%d)" family mix_name (Graph.n g) in
  let mk ~answered ~rejected ~lost ~frames ~qpeak ~hops ~lats ~rounds ~secs
      ~minor ~promoted =
    {
      sv_family = family;
      sv_mix = mix_name;
      sv_n = Graph.n g;
      sv_m = Graph.m g;
      sv_k = k;
      sv_requests = requests;
      sv_crashes = crashes;
      sv_answered = answered;
      sv_rejected = rejected;
      sv_lost = lost;
      sv_frames = frames;
      sv_qpeak = qpeak;
      sv_hops_p50 = Serve.percentile hops 50;
      sv_hops_p99 = Serve.percentile hops 99;
      sv_lat_p50 = Serve.percentile lats 50;
      sv_lat_p99 = Serve.percentile lats 99;
      sv_rounds = rounds;
      sv_secs = secs;
      sv_minor = minor;
      sv_promoted = promoted;
    }
  in
  if crashes = 0 then begin
    let (states, stats), secs, minor, promoted =
      wall_alloc (fun () -> Serve.run e cfg)
    in
    let rep = Serve.decode cfg states in
    Oracle.expect_ok label (Serve.check g cfg rep);
    if rep.Serve.lost > 0 then
      failwith (label ^ ": lost requests in a churn-free run");
    mk ~answered:rep.Serve.answered ~rejected:rep.Serve.rejected
      ~lost:rep.Serve.lost ~frames:rep.Serve.frames
      ~qpeak:rep.Serve.queue_peak ~hops:rep.Serve.hop_counts
      ~lats:rep.Serve.latencies ~rounds:stats.Engine.rounds ~secs ~minor
      ~promoted
  end
  else begin
    let beta = max 2 (k + 1) and lease = 2 in
    let detect_bound = ((lease + 1) * beta) + (2 * dmax) + 2 in
    let repair_bound =
      (2 * lease * beta) + (4 * Repair.default_dmax plan) + 18
    in
    let settle = detect_bound + repair_bound + beta + 2 in
    let events =
      Faults.random_churn g ~seed:(seed + 3) ~crashes ~edge_cuts:0 ~last:window
    in
    let h, secs, minor, promoted =
      wall_alloc (fun () ->
          Serve.with_repair ~beta ~lease ~settle e cfg ~churn:events)
    in
    (* the acceptance bar: every surviving-component request is eventually
       answered across the handover *)
    Oracle.expect_ok label (Serve.check_handover g cfg h);
    let p2_answered, p2_rejected, p2_lost, p2_frames =
      match h.Serve.phase2 with
      | None -> (0, 0, 0, 0)
      | Some p2 ->
        (p2.Serve.answered, p2.Serve.rejected, p2.Serve.lost, p2.Serve.frames)
    in
    if p2_lost > 0 then failwith (label ^ ": requests lost after the repair handover");
    let ph1 = h.Serve.phase1 in
    mk
      ~answered:(ph1.Serve.answered + p2_answered)
      ~rejected:(ph1.Serve.rejected + p2_rejected)
      ~lost:(ph1.Serve.lost - Array.length h.Serve.retried + p2_lost)
      ~frames:(ph1.Serve.frames + p2_frames)
      ~qpeak:ph1.Serve.queue_peak ~hops:ph1.Serve.hop_counts
      ~lats:ph1.Serve.latencies ~rounds:cfg.Serve.horizon ~secs ~minor
      ~promoted
  end

let serve_rows ~smoke () =
  let rng n seed = seeded (n + seed) in
  let grid side seed = Generators.grid ~rng:(rng side seed) ~rows:side ~cols:side in
  let tree n seed = Generators.random_tree ~rng:(rng n seed) n in
  if smoke then
    [
      serve_case ~family:"grid" ~mix_name:"uniform" (grid 40 1) ~k:3 ~seed:97
        ~requests:2000 ~crashes:0;
      serve_case ~family:"grid" ~mix_name:"hotspot" (grid 40 1) ~k:3 ~seed:98
        ~requests:2000 ~crashes:0;
      serve_case ~family:"random-tree" ~mix_name:"uniform" (tree 1500 2) ~k:3
        ~seed:99 ~requests:2000 ~crashes:0;
      serve_case ~family:"random-tree" ~mix_name:"hotspot" (tree 1500 2) ~k:3
        ~seed:100 ~requests:2000 ~crashes:0;
      serve_case ~family:"grid" ~mix_name:"uniform" (grid 40 3) ~k:3 ~seed:101
        ~requests:2000 ~crashes:5;
    ]
  else
    [
      serve_case ~family:"grid" ~mix_name:"uniform" (grid 316 1) ~k:4 ~seed:97
        ~requests:100_000 ~crashes:0;
      serve_case ~family:"grid" ~mix_name:"hotspot" (grid 316 1) ~k:4 ~seed:98
        ~requests:100_000 ~crashes:0;
      serve_case ~family:"random-tree" ~mix_name:"uniform" (tree 100_000 2) ~k:4
        ~seed:99 ~requests:100_000 ~crashes:0;
      serve_case ~family:"random-tree" ~mix_name:"hotspot" (tree 100_000 2) ~k:4
        ~seed:100 ~requests:100_000 ~crashes:0;
      serve_case ~family:"grid" ~mix_name:"uniform" (grid 1000 4) ~k:4 ~seed:102
        ~requests:100_000 ~crashes:0;
      serve_case ~family:"grid" ~mix_name:"uniform" (grid 100 3) ~k:4 ~seed:101
        ~requests:20_000 ~crashes:8;
    ]

let serve_json rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "  {\"family\": %S, \"mix\": %S, \"n\": %d, \"m\": %d, \"k\": %d, \
            \"requests\": %d, \"crashes\": %d, \"answered\": %d, \
            \"rejected\": %d, \"lost\": %d, \"frames\": %d, \
            \"queue_peak\": %d, \"hops_p50\": %d, \"hops_p99\": %d, \
            \"latency_p50\": %d, \"latency_p99\": %d, \"rounds\": %d, \
            \"requests_per_sec\": %.0f, \"wall_secs\": %.3f, \
            \"minor_words\": %.0f, \"promoted_words\": %.0f}"
           r.sv_family r.sv_mix r.sv_n r.sv_m r.sv_k r.sv_requests r.sv_crashes
           r.sv_answered r.sv_rejected r.sv_lost r.sv_frames r.sv_qpeak
           r.sv_hops_p50 r.sv_hops_p99 r.sv_lat_p50 r.sv_lat_p99 r.sv_rounds
           (float_of_int r.sv_requests /. Float.max 1e-9 r.sv_secs)
           r.sv_secs r.sv_minor r.sv_promoted))
    rows;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let serve_print rows =
  pf "%-12s %-8s %8s %3s %8s %4s %6s %5s %9s %9s %8s %7s@." "family" "mix" "n"
    "k" "reqs" "crsh" "lost" "qpk" "hops50/99" "lat50/99" "req/s" "secs";
  List.iter
    (fun r ->
      pf "%-12s %-8s %8d %3d %8d %4d %6d %5d %4d/%-4d %4d/%-4d %8.0f %7.2f@."
        r.sv_family r.sv_mix r.sv_n r.sv_k r.sv_requests r.sv_crashes r.sv_lost
        r.sv_qpeak r.sv_hops_p50 r.sv_hops_p99 r.sv_lat_p50 r.sv_lat_p99
        (float_of_int r.sv_requests /. Float.max 1e-9 r.sv_secs)
        r.sv_secs)
    rows

let serve_bench () =
  header "SERVE  live request traffic through the cluster forest"
    "lookups/publishes answer in exactly 2*depth <= 2k hops, routes in \
     2*tree_distance; hotspot mixes pay queueing latency, never wider \
     frames; with dominators crashing mid-traffic, every \
     surviving-component request is answered after the repair handover";
  let rows = serve_rows ~smoke:false () in
  serve_print rows;
  let oc = open_out "BENCH_serve.json" in
  output_string oc (serve_json rows);
  close_out oc;
  pf "@.wrote BENCH_serve.json (%d rows)@." (List.length rows)

(* CI pass: the reduced sweep — same oracles, no BENCH_serve.json rewrite
   (the checked-in file records the 100k..1M run). *)
let serve_smoke () =
  let rows = serve_rows ~smoke:true () in
  serve_print rows;
  let steady = List.filter (fun r -> r.sv_crashes = 0) rows in
  (* crash rows may legitimately keep Lost requests from crashed origins —
     check_handover already enforced that every surviving one was served *)
  if List.exists (fun r -> r.sv_lost > 0) steady then
    failwith "serve smoke: lost requests in a steady row";
  if List.exists (fun r -> r.sv_answered + r.sv_rejected <> r.sv_requests) steady
  then failwith "serve smoke: non-terminal requests in a steady row";
  pf
    "@.serve smoke OK: %d rows (2 families x 2 mixes + crash handover), \
     oracle-clean, steady rows lossless@."
    (List.length rows)

(* ------------------------------------------------------------------ *)
(* CODEC — the packed frame arena: the allocation-free emit path on the
   flood and token kernels.  [minor_words] are read from [Gc.quick_stat]
   around the timed run — the "zero-allocation" claim is measured, not
   declared.  Results go to BENCH_codec.json. *)

type codec_row = {
  cr_kernel : string;
  cr_family : string;
  cr_n : int;
  cr_m : int;
  cr_rounds : int;
  cr_messages : int;
  cr_emit_secs : float;
  cr_emit_minor : float;
  cr_emit_promoted : float;
}

let codec_case ~kernel ~family ~trials g algo =
  let open Kdom_congest in
  let eng = Engine.create g in
  (* warm-up: page in buffers, trigger any lazy setup *)
  let _, stats = Engine.exec_emit eng algo in
  let best f =
    let secs = ref infinity and minor = ref infinity and prom = ref infinity in
    for _ = 1 to trials do
      let _, s, mw, pw = wall_alloc f in
      if s < !secs then secs := s;
      if mw < !minor then minor := mw;
      if pw < !prom then prom := pw
    done;
    (!secs, !minor, !prom)
  in
  let esecs, eminor, eprom = best (fun () -> ignore (Engine.exec_emit eng algo)) in
  {
    cr_kernel = kernel;
    cr_family = family;
    cr_n = Graph.n g;
    cr_m = Graph.m g;
    cr_rounds = stats.Runtime.rounds;
    cr_messages = stats.Runtime.messages;
    cr_emit_secs = esecs;
    cr_emit_minor = eminor;
    cr_emit_promoted = eprom;
  }

let codec_minor_per_round r =
  r.cr_emit_minor /. float_of_int (max 1 r.cr_rounds)

(* the first acceptance gate: the emit path's steady-state allocation
   rounds to zero.  The budget is a handful of words per ROUND (engine
   bookkeeping + the Gc.quick_stat probe itself), against hundreds of
   thousands of messages per round at 100k nodes — per message it is
   under 0.01 words. *)
let codec_assert_minor ~budget rows =
  List.iter
    (fun r ->
      if r.cr_kernel = "flood" && codec_minor_per_round r > budget then
        failwith
          (Printf.sprintf
             "codec bench %s/%s n=%d: emit path allocates %.0f minor \
              words/round (budget %.0f)"
             r.cr_kernel r.cr_family r.cr_n (codec_minor_per_round r) budget))
    rows

let codec_json rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      let mps secs = float_of_int r.cr_messages /. Float.max 1e-9 secs in
      let per_round w = w /. float_of_int (max 1 r.cr_rounds) in
      Buffer.add_string b
        (Printf.sprintf
           "  {\"kernel\": %S, \"family\": %S, \"n\": %d, \"m\": %d, \
            \"rounds\": %d, \"messages\": %d, \"emit_secs\": %.6f, \
            \"emit_msgs_per_sec\": %.0f, \"emit_minor_words\": %.0f, \
            \"emit_minor_words_per_round\": %.1f, \"emit_promoted_words\": \
            %.0f}"
           r.cr_kernel r.cr_family r.cr_n r.cr_m r.cr_rounds r.cr_messages
           r.cr_emit_secs (mps r.cr_emit_secs) r.cr_emit_minor
           (per_round r.cr_emit_minor)
           r.cr_emit_promoted))
    rows;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let codec_print rows =
  pf "%-7s %-6s %8s %7s %9s %11s %10s@." "kernel" "family" "n" "rounds"
    "messages" "emit Mm/s" "emit w/rnd";
  List.iter
    (fun r ->
      pf "%-7s %-6s %8d %7d %9d %11.2f %10.0f@." r.cr_kernel r.cr_family r.cr_n
        r.cr_rounds r.cr_messages
        (float_of_int r.cr_messages /. Float.max 1e-9 r.cr_emit_secs /. 1e6)
        (codec_minor_per_round r))
    rows

let codec_rows ~smoke () =
  let grid n seed =
    let side = int_of_float (sqrt (float_of_int n)) in
    Generators.grid ~rng:(seeded (seed + n)) ~rows:side ~cols:side
  in
  let path n = Generators.path ~rng:(seeded (83 + n)) n in
  if smoke then
    [
      codec_case ~kernel:"flood" ~family:"grid" ~trials:2 (grid 2_304 41)
        (flood_algorithm ~rounds:8);
      codec_case ~kernel:"token" ~family:"path" ~trials:2 (path 2_000)
        token_algorithm;
    ]
  else
    [
      codec_case ~kernel:"flood" ~family:"grid" ~trials:3 (grid 100_000 41)
        (flood_algorithm ~rounds:12);
      codec_case ~kernel:"flood" ~family:"grid" ~trials:2 (grid 1_000_000 43)
        (flood_algorithm ~rounds:6);
      codec_case ~kernel:"token" ~family:"path" ~trials:3 (path 10_000)
        token_algorithm;
    ]

let codec_bench () =
  header "CODEC  packed arena: the allocation-free emit path"
    "~0 minor words/round on the 100k-node grid flood";
  let rows = codec_rows ~smoke:false () in
  codec_print rows;
  codec_assert_minor ~budget:2048.0 rows;
  let oc = open_out "BENCH_codec.json" in
  output_string oc (codec_json rows);
  close_out oc;
  pf "@.wrote BENCH_codec.json (%d rows)@." (List.length rows)

(* CI pass: small instances, same allocation gate. *)
let codec_smoke () =
  let rows = codec_rows ~smoke:true () in
  codec_print rows;
  codec_assert_minor ~budget:2048.0 rows;
  pf "@.codec smoke OK: %d rows, flood emit path within the minor-word budget@."
    (List.length rows)

(* ------------------------------------------------------------------ *)
(* CHAOS  end-to-end frame integrity under composed fault storms.

   Three row families, appended to BENCH_chaos.json:

   - guard rows: the grid flood on the zero-allocation emit path with the
     CRC-16 guard off vs on — the integrity tax on the hottest loop.  The
     full bench runs the 100k-node grid and asserts the delta under 15%;
     the smoke run reports it at CI scale without the wall-clock gate.
   - detect rows: the same flood under engine-level corruption at a sweep
     of flip probabilities — injected / detected / truncated counts and
     the detection rate, which must be 1.0 (every garbled frame rejected
     before delivery; a CRC collision would fail the bench).
   - storm rows: {!Chaos.run_message} under the named presets at async
     scale — the delivered-correct rate is 1.0 by construction (the
     runner asserts bit-identity with the fault-free synchronous run), so
     the interesting quantities are the retransmit overhead and the
     rejected-frame counts. *)

type chaos_guard_row = {
  h_n : int;
  h_m : int;
  h_rounds : int;
  h_messages : int;
  h_off_secs : float;
  h_on_secs : float;
}

type chaos_detect_row = {
  d_n : int;
  d_flip : float;
  d_injected : int;
  d_detected : int;
  d_truncated : int;
  d_secs : float;
}

type chaos_storm_row = {
  w_storm : string;
  w_algo : string;
  w_n : int;
  w_pulses : int;
  w_frames : int;
  w_retransmits : int;
  w_rejected : int;
  w_injected : int;
}

let chaos_guard_delta r =
  100.0 *. ((r.h_on_secs /. Float.max 1e-9 r.h_off_secs) -. 1.0)

let chaos_guard_case ~trials g ~rounds =
  let open Kdom_congest in
  let eng = Engine.create g in
  let ea = flood_algorithm ~rounds in
  let off_warm = Engine.exec_emit eng ea in
  let on_warm = Engine.exec_emit ~guard:true eng ea in
  if fst off_warm <> fst on_warm then
    failwith "chaos bench: the guard word changed the flood states";
  let best f =
    let secs = ref infinity in
    for _ = 1 to trials do
      let _, s = wall f in
      if s < !secs then secs := s
    done;
    !secs
  in
  let off_secs = best (fun () -> ignore (Engine.exec_emit eng ea)) in
  let on_secs =
    best (fun () -> ignore (Engine.exec_emit ~guard:true eng ea))
  in
  let stats = snd on_warm in
  {
    h_n = Graph.n g;
    h_m = Graph.m g;
    h_rounds = stats.Engine.rounds;
    h_messages = stats.Engine.messages;
    h_off_secs = off_secs;
    h_on_secs = on_secs;
  }

let chaos_detect_case g ~rounds ~flip =
  let open Kdom_congest in
  let eng = Engine.create g in
  let corrupt =
    Engine.Corrupt.make ~flip ~burst:2 ~truncate:(flip /. 10.) ~seed:97 ()
  in
  let _, secs =
    wall (fun () ->
        ignore (Engine.exec_emit ~corrupt eng (flood_algorithm ~rounds)))
  in
  let t = corrupt.Engine.Corrupt.tally in
  let injected = t.Engine.Corrupt.injected
  and detected = t.Engine.Corrupt.detected
  and truncated = t.Engine.Corrupt.truncated in
  if injected <> detected + truncated then
    failwith
      (Printf.sprintf
         "chaos bench: flip %g injected %d but rejected only %d + %d — a \
          corrupted frame was delivered"
         flip injected detected truncated);
  { d_n = Graph.n g; d_flip = flip; d_injected = injected;
    d_detected = detected; d_truncated = truncated; d_secs = secs }

let chaos_storm_case ~storm_name ~storm ~algo g case =
  let open Kdom_congest in
  let v = Chaos.run_message ~seed:7 ~storm g case in
  {
    w_storm = storm_name;
    w_algo = algo;
    w_n = Graph.n g;
    w_pulses = v.Chaos.v_pulses;
    w_frames = v.Chaos.v_frames;
    w_retransmits = v.Chaos.v_retransmits;
    w_rejected = v.Chaos.v_corrupted;
    w_injected = v.Chaos.v_injected;
  }

let chaos_rows ~smoke () =
  let open Kdom_congest in
  let grid n seed =
    let side = int_of_float (sqrt (float_of_int n)) in
    Generators.grid ~rng:(seeded (seed + n)) ~rows:side ~cols:side
  in
  let gn = if smoke then 2_304 else 100_000 in
  let rounds = if smoke then 8 else 12 in
  let trials = if smoke then 2 else 3 in
  let big = grid gn 41 in
  let guards = [ chaos_guard_case ~trials big ~rounds ] in
  let detects =
    List.map
      (fun flip -> chaos_detect_case big ~rounds ~flip)
      [ 1e-5; 1e-4; 1e-3; 1e-2 ]
  in
  let sg =
    Generators.gnp_connected
      ~rng:(seeded 19)
      ~n:(if smoke then 20 else 48)
      ~p:0.2
  in
  let bfs_case =
    Chaos.Case
      ( "bfs",
        Kdom.Bfs_tree.max_words,
        (fun () -> Kdom.Bfs_tree.algorithm sg ~root:0),
        fun states ->
          let info = Kdom.Bfs_tree.info_of_states sg ~root:0 states in
          Kdom_congest.Oracle.expect_ok "bfs"
            (Kdom_congest.Oracle.bfs_tree sg ~root:0 ~parent:info.parent
               ~depth:info.depth) )
  in
  let leader_case =
    Chaos.Case
      ( "leader",
        Kdom.Leader.max_words,
        (fun () -> Kdom.Leader.algorithm sg),
        fun _ -> () )
  in
  let storms =
    List.concat_map
      (fun (storm_name, storm) ->
        List.map
          (fun (algo, case) ->
            chaos_storm_case ~storm_name ~storm ~algo sg case)
          [ ("bfs", bfs_case); ("leader", leader_case) ])
      [
        ("drizzle", Chaos.drizzle);
        ("squall", Chaos.squall);
        ("hurricane", Chaos.hurricane);
      ]
  in
  (guards, detects, storms)

let chaos_json (guards, detects, storms) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  let first = ref true in
  let row s =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    Buffer.add_string b s
  in
  List.iter
    (fun r ->
      row
        (Printf.sprintf
           "  {\"kind\": \"guard\", \"n\": %d, \"m\": %d, \"rounds\": %d, \
            \"messages\": %d, \"guard_off_secs\": %.6f, \"guard_on_secs\": \
            %.6f, \"guard_delta_pct\": %.2f}"
           r.h_n r.h_m r.h_rounds r.h_messages r.h_off_secs r.h_on_secs
           (chaos_guard_delta r)))
    guards;
  List.iter
    (fun r ->
      row
        (Printf.sprintf
           "  {\"kind\": \"detect\", \"n\": %d, \"flip\": %g, \"injected\": \
            %d, \"detected\": %d, \"truncated\": %d, \"detection_rate\": \
            %.4f, \"secs\": %.6f}"
           r.d_n r.d_flip r.d_injected r.d_detected r.d_truncated
           (if r.d_injected = 0 then 1.0
            else
              float_of_int (r.d_detected + r.d_truncated)
              /. float_of_int r.d_injected)
           r.d_secs))
    detects;
  List.iter
    (fun r ->
      row
        (Printf.sprintf
           "  {\"kind\": \"storm\", \"storm\": %S, \"algo\": %S, \"n\": %d, \
            \"pulses\": %d, \"frames\": %d, \"retransmits\": %d, \
            \"retransmit_overhead\": %.4f, \"rejected\": %d, \"injected\": \
            %d, \"delivered_correct_rate\": 1.0}"
           r.w_storm r.w_algo r.w_n r.w_pulses r.w_frames r.w_retransmits
           (float_of_int r.w_retransmits /. float_of_int (max 1 r.w_frames))
           r.w_rejected r.w_injected))
    storms;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let chaos_print (guards, detects, storms) =
  List.iter
    (fun r ->
      pf "guard   n=%-7d msgs=%-9d off %.3fs  on %.3fs  delta %+.1f%%@." r.h_n
        r.h_messages r.h_off_secs r.h_on_secs (chaos_guard_delta r))
    guards;
  List.iter
    (fun r ->
      pf
        "detect  n=%-7d flip=%-8g injected=%-7d detected=%-7d truncated=%-5d \
         rate=1.0  %.3fs@."
        r.d_n r.d_flip r.d_injected r.d_detected r.d_truncated r.d_secs)
    detects;
  List.iter
    (fun r ->
      pf
        "storm   %-9s %-6s n=%-4d pulses=%-4d frames=%-7d retransmits=%-6d \
         rejected=%-5d injected=%d@."
        r.w_storm r.w_algo r.w_n r.w_pulses r.w_frames r.w_retransmits
        r.w_rejected r.w_injected)
    storms

let chaos_bench () =
  header
    "CHAOS  frame integrity + composed fault storms"
    "guard tax < 15% on the 100k-node grid flood; detection rate 1.0 at \
     every flip probability; storms recovered bit-identically with bounded \
     retransmit overhead";
  let (guards, _, _) as rows = chaos_rows ~smoke:false () in
  chaos_print rows;
  List.iter
    (fun r ->
      let delta = chaos_guard_delta r in
      if delta > 15.0 then
        failwith
          (Printf.sprintf
             "chaos bench: CRC guard costs %.1f%% on the n=%d flood (< 15%% \
              required)"
             delta r.h_n))
    guards;
  let oc = open_out "BENCH_chaos.json" in
  output_string oc (chaos_json rows);
  close_out oc;
  let _, detects, storms = rows in
  pf "@.wrote BENCH_chaos.json (%d rows)@."
    (List.length guards + List.length detects + List.length storms)

(* CI pass: the same three families at smoke scale.  The wall-clock guard
   gate is reported, not asserted (fixed per-run costs dominate small
   grids); the detection-rate and bit-identity gates hold at any scale. *)
let chaos_smoke () =
  let (guards, detects, storms) as rows = chaos_rows ~smoke:true () in
  chaos_print rows;
  pf
    "@.chaos smoke OK: %d guard + %d detect + %d storm rows; detection rate \
     1.0 throughout, storms bit-identical to the synchronous baseline@."
    (List.length guards) (List.length detects) (List.length storms)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
    ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
    ("e11", e11); ("e12", e12);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "trace-overhead" args then
    trace_overhead ~smoke:(List.mem "smoke" args) ()
  else if List.mem "codec-smoke" args then codec_smoke ()
  else if List.mem "codec" args then
    if List.mem "--smoke" args || List.mem "smoke" args then codec_smoke ()
    else codec_bench ()
  else if List.mem "smoke" args then smoke ()
  else if List.mem "faults-smoke" args then faults_smoke ()
  else if List.mem "faults" args then faults_bench ()
  else if List.mem "repair-smoke" args then repair_smoke ()
  else if List.mem "repair" args then repair_bench ()
  else if List.mem "engine" args then engine_bench ()
  else if List.mem "sched-smoke" args then sched_smoke ()
  else if List.mem "sched" args then sched_bench ()
  else if List.mem "par-smoke" args then par_smoke ()
  else if List.mem "par" args then par_bench ()
  else if List.mem "dynamic-smoke" args then dynamic_smoke ()
  else if List.mem "dynamic" args then dynamic_bench ()
  else if List.mem "serve-smoke" args then serve_smoke ()
  else if List.mem "serve" args then serve_bench ()
  else if List.mem "chaos-smoke" args then chaos_smoke ()
  else if List.mem "chaos" args then chaos_bench ()
  else begin
    let tables_only = List.mem "tables" args in
    let selected = List.filter (fun a -> List.mem_assoc a experiments) args in
    let to_run =
      if selected = [] then experiments
      else List.filter (fun (name, _) -> List.mem name selected) experiments
    in
    pf "kdom benchmark harness — Kutten & Peleg, PODC'95 reproduction@.";
    pf "(rounds are synchronous CONGEST rounds; see DESIGN.md for the charge model)@.";
    List.iter (fun (_, f) -> f ()) to_run;
    if (not tables_only) && selected = [] then wall_clock ()
  end
