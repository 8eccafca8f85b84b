(* Benchmark harness: regenerates every quantitative claim of the paper as a
   table (experiments E1..E12, see DESIGN.md and EXPERIMENTS.md), and runs
   the bench modes that record the simulator's own claims.

     dune exec bench/main.exe                   # all tables
     dune exec bench/main.exe -- e1 e8          # selected tables only
     dune exec bench/main.exe -- sched          # one mode, full size: BENCH_sched.json
     dune exec bench/main.exe -- sched --smoke  # the same gates at CI size, no file
     dune exec bench/main.exe -- all --smoke    # every mode at CI size (dune runtest)
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
(* Bench modes: the simulator's own claims, one mode each.  A mode's rows
   function asserts its gates at both sizes; [main.exe MODE] runs it at
   full size and writes BENCH_MODE.json, [main.exe MODE --smoke] runs it
   at CI size and writes nothing.  A row is a flat key-value list, so a
   column is named once, where its row is built: [write] prints the rows
   as a JSON array and [table] prints the same rows for a reader. *)

type row = (string * Json.t) list

let int x = Json.Num (float_of_int x)
let num x = Json.Num x
let str s = Json.Str s
let ratio a b = float_of_int a /. float_of_int (max 1 b)
let pick ~smoke full small = if smoke then small else full

(* Fractions keep six significant digits; counts are written exactly. *)
let tidy = function
  | Json.Num x when not (Float.is_integer x) ->
    Json.Num (float_of_string (Printf.sprintf "%.6g" x))
  | v -> v

let write name (rows : row list) =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out file in
  output_string oc "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then output_string oc ",\n";
      output_string oc
        ("  " ^ Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, tidy v)) r))))
    rows;
  output_string oc "\n]\n";
  close_out oc;
  pf "wrote %s (%d rows)@." file (List.length rows)

let cell = function
  | Json.Num x when Float.is_integer x || Float.abs x >= 1e4 -> Printf.sprintf "%.0f" x
  | Json.Num x -> Printf.sprintf "%.4g" x
  | Json.Str s -> s
  | v -> Json.to_string v

(* Consecutive rows with the same columns share one header. *)
let rec table (rows : row list) =
  match rows with
  | [] -> ()
  | r :: _ ->
    let keys r = List.map fst r in
    let rec span = function
      | x :: xs when keys x = keys r ->
        let group, rest = span xs in
        (x :: group, rest)
      | rest -> ([], rest)
    in
    let group, rest = span rows in
    let lines = keys r :: List.map (List.map (fun (_, v) -> cell v)) group in
    let widths =
      List.fold_left
        (List.map2 (fun w c -> max w (String.length c)))
        (List.map (fun _ -> 0) r)
        lines
    in
    List.iter
      (fun l -> pf "%s@." (String.concat " " (List.map2 (Printf.sprintf "%*s") widths l)))
      lines;
    pf "@.";
    table rest

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
       machinery; the hinted variant lives in the sched mode below *)
    ewake = Kdom_congest.Engine.always;
  }

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [wall] plus the GC's allocation deltas over the timed closure:
   (result, secs, minor_words, promoted_words).  Minor words are the
   honest cost of a "zero-allocation" claim.  Both counters are read after
   a forced minor collection on each side: [Gc.quick_stat] adds a domain's
   minor words up only when its minor heap is emptied (unforced, the delta
   moves by up to a minor heap between identical runs), and it sums every
   domain ([Gc.minor_words] counts the calling domain only, so it would
   miss the shards of a [~domains] run).  Promoted words then count
   everything the closure allocated that outlives it. *)
let wall_alloc f =
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let secs = Unix.gettimeofday () -. t0 in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  ( r,
    secs,
    s1.Gc.minor_words -. s0.Gc.minor_words,
    s1.Gc.promoted_words -. s0.Gc.promoted_words )

let gc_cols minor promoted =
  [ ("minor_words", num minor); ("promoted_words", num promoted) ]

let grid_of ~seed n =
  let side = int_of_float (sqrt (float_of_int n)) in
  Generators.grid ~rng:(seeded (seed + n)) ~rows:side ~cols:side

let path_of n = Generators.path ~rng:(seeded (83 + n)) n

(* ------------------------------------------------------------------ *)
(* ENGINE — the port-indexed mailbox engine against the list-based
   simulator kept as [Runtime.run_reference].  Two kernels:

   - [flood]: for R rounds every node sends [| round |] to every neighbor,
     saturating both directions of every edge — messages/sec through the
     delivery path (port lookup, congestion checks, slot write, inbox
     build);
   - [token]: a token walks a path one hop per round while every other
     node steps on an empty inbox — rounds/sec of the per-round machinery
     (buffer swap, live sweep, compaction).

   Both backends run the same node program, so their stats must agree
   exactly (asserted).  GNP is capped at n = 10_000 because the generator
   itself is O(n^2); the 100k-node claim runs on the grid. *)

let engine_case ~kernel ~family ~skip_reference g algo : row =
  let open Kdom_congest in
  let eng, setup = wall (fun () -> Engine.create g) in
  let (_, stats), secs, minor, promoted =
    wall_alloc (fun () -> Engine.exec_emit eng algo)
  in
  let per_sec x secs = float_of_int x /. secs in
  let reference =
    (* an explicit marker, never a null: consumers can test
       row.reference == "skipped" without a schema special case *)
    if skip_reference then [ ("reference", str "skipped") ]
    else begin
      let (_, rstats), rsecs = wall (fun () -> Runtime.run_reference g algo) in
      if rstats <> stats then
        failwith
          (Printf.sprintf "engine bench %s/%s: backend stats disagree" kernel family);
      [
        ("reference_secs", num rsecs);
        ("reference_msgs_per_sec", num (per_sec stats.Engine.messages rsecs));
        ("speedup", num (rsecs /. secs));
      ]
    end
  in
  [
    ("kernel", str kernel); ("family", str family);
    ("n", int (Graph.n g)); ("m", int (Graph.m g));
    ("rounds", int stats.Engine.rounds); ("messages", int stats.Engine.messages);
    ("setup_secs", num setup); ("engine_secs", num secs);
    ("engine_msgs_per_sec", num (per_sec stats.Engine.messages secs));
    ("engine_rounds_per_sec", num (per_sec stats.Engine.rounds secs));
  ]
  @ gc_cols minor promoted @ reference

let engine_rows ~smoke =
  let gnp n = Generators.gnp_connected ~rng:(seeded (89 + n)) ~n ~p:(8.0 /. float_of_int n) in
  let flood family gen ns =
    List.map
      (fun n ->
        engine_case ~kernel:"flood" ~family ~skip_reference:false (gen n)
          (flood_algorithm ~rounds:12))
      ns
  in
  List.concat
    [
      flood "grid" (grid_of ~seed:97) (pick ~smoke [ 1_000; 10_000; 100_000 ] [ 256 ]);
      flood "gnp" gnp (pick ~smoke [ 1_000; 10_000 ] []);
      flood "path" path_of (pick ~smoke [ 1_000; 10_000; 100_000 ] []);
      (* token at 100k would step ~n^2/2 node programs in either backend;
         the per-round machinery is already resolved at 10k *)
      List.map
        (fun n ->
          engine_case ~kernel:"token" ~family:"path" ~skip_reference:(n > 1_000)
            (path_of n) token_algorithm)
        (pick ~smoke [ 1_000; 10_000 ] [ 500 ]);
    ]

(* ------------------------------------------------------------------ *)
(* SCHED — the sparse event-driven scheduler against the dense schedule
   (the same node program with [ewake = Engine.always], on the same
   engine: every live node stepped every round).  Three kernels whose active frontier is far
   below the live set:

   - [token]: a token walks a path, wake = OnMessage — one node acts per
     round, the canonical O(1) frontier;
   - [cast]: convergecast up a BFS tree — a node acts only when a child's
     partial aggregate arrives;
   - [census]: DiamDOM's census stage — a depth-d node acts only inside
     its [M-d, M-d+k] window (wake = At), so ~k+1 depth classes are
     active per round.

   Sparse and dense runs must produce identical final stats (asserted —
   the hints are sound, so eliding sleeping nodes cannot change the
   execution); a third, untimed instrumented run collects the
   stepped/woken counters, which [round_cap] (steps in any round after
   init) and [mean_cap] (steps per round overall) bound. *)

let sched_case ~kernel ~family ?max_words ?(round_cap = max_int)
    ?(mean_cap = infinity) g mk : row =
  let open Kdom_congest in
  let what = Printf.sprintf "sched bench %s/%s" kernel family in
  let eng = Engine.create g in
  let (_, sstats), sparse, minor, promoted =
    wall_alloc (fun () -> Engine.exec_emit eng ?max_words (mk ()))
  in
  let (_, dstats), dense =
    wall (fun () ->
        Engine.exec_emit eng ?max_words { (mk ()) with Engine.ewake = Engine.always })
  in
  if sstats <> dstats then failwith (what ^ ": sparse and dense stats disagree");
  let sink, rounds_info = Engine.Sink.counters () in
  ignore (Engine.exec_emit eng ?max_words ~sink (mk ()));
  let infos = rounds_info () in
  List.iter
    (fun (i : Engine.Sink.round_info) ->
      if i.round >= 1 && i.counts.(Engine.Sink.stepped) > round_cap then
        failwith
          (Printf.sprintf "%s: round %d stepped %d nodes (at most %d after init)"
             what i.round i.counts.(Engine.Sink.stepped) round_cap))
    infos;
  let sum c =
    List.fold_left (fun a (i : Engine.Sink.round_info) -> a + i.counts.(c)) 0 infos
  in
  let rounds = sstats.Engine.rounds and stepped = sum Engine.Sink.stepped in
  let stepped_per_round = ratio stepped rounds in
  if stepped_per_round > mean_cap then
    failwith
      (Printf.sprintf "%s: %.2f steps per round > %g" what stepped_per_round mean_cap);
  let rps secs = float_of_int rounds /. secs in
  [
    ("kernel", str kernel); ("family", str family);
    ("n", int (Graph.n g)); ("m", int (Graph.m g));
    ("rounds", int rounds); ("messages", int sstats.Engine.messages);
    ("stepped", int stepped); ("woken", int (sum Engine.Sink.woken));
    ("stepped_per_round", num stepped_per_round);
    ("sparse_secs", num sparse); ("dense_secs", num dense);
    ("sparse_rounds_per_sec", num (rps sparse));
    ("dense_rounds_per_sec", num (rps dense));
    ("speedup", num (dense /. sparse));
  ]
  @ gc_cols minor promoted

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

let sched_rows ~smoke =
  let tree n = Generators.random_tree ~rng:(seeded (79 + n)) n in
  let cast ~family g =
    let info, _ = Bfs_tree.run g ~root:0 in
    sched_case ~kernel:"cast" ~family g (fun () -> convergecast_algorithm info)
  in
  let census ~family ~k ?mean_cap g =
    let info, _ = Bfs_tree.run g ~root:0 in
    sched_case ~kernel:"census" ~family ?mean_cap
      ~max_words:Diam_dom.census_max_words g (fun () ->
        Diam_dom.census_algorithm info ~k)
  in
  let n = pick ~smoke 10_000 2_000 and census_n = pick ~smoke 4_096 600 in
  [
    (* exactly one step per round after init, ~2 overall *)
    sched_case ~kernel:"token" ~family:"path" ~round_cap:1 ~mean_cap:3.0 (path_of n)
      (fun () -> sparse_token_algorithm);
    cast ~family:"path" (path_of n);
    cast ~family:"random" (tree n);
    (* O(k) frontier on a path; a random tree's depth classes are wide, so
       its census row is not bounded *)
    census ~family:"path" ~k:2 ~mean_cap:(float_of_int (4 * (2 + 1))) (path_of census_n);
    census ~family:"random" ~k:8 (tree census_n);
  ]

(* ------------------------------------------------------------------ *)
(* FAULTS — reliable delivery under loss: throughput and retransmission
   overhead vs drop rate on the grid (flood kernel).  The paper's §1.2
   synchronizer charge is one message per edge per direction per
   simulated round; [sync_per_edge_pulse] measures the logical
   synchronizer traffic against that bound (acks + SAFEs, which stays ~2
   per edge-direction-pulse regardless of loss), while
   [frames_per_logical] is what the lossy link layer adds on top:
   data + link-ack = 2 at drop 0, growing with retransmissions. *)

let fault_case ~drop ~duplicate ~seed ~rounds g : row =
  let open Kdom_congest in
  let faults =
    if drop = 0.0 && duplicate = 0.0 then Faults.none
    else Faults.lossy ~drop ~duplicate ~seed ()
  in
  let (_, frep), secs, minor, promoted =
    wall_alloc (fun () ->
        Async.run_reliable ~rng:(seeded (seed + 1)) ~faults g (flood_algorithm ~rounds))
  in
  let r = frep.Async.report in
  let m = Graph.m g in
  [
    ("drop", num drop); ("n", int (Graph.n g)); ("m", int m);
    ("pulses", int r.Async.pulses);
    ("alg_messages", int r.Async.alg_messages);
    ("sync_messages", int r.Async.sync_messages);
    ("frames", int frep.Async.frames);
    ("retransmits", int frep.Async.retransmits);
    ("dropped", int frep.Async.dropped);
    ("duplicated", int frep.Async.duplicated);
    ("wall_secs", num secs);
    ( "frames_per_logical",
      num (ratio frep.Async.frames (r.Async.alg_messages + r.Async.sync_messages)) );
    ("sync_per_edge_pulse", num (ratio r.Async.sync_messages (2 * m * r.Async.pulses)));
    ("frames_per_sec", num (float_of_int frep.Async.frames /. secs));
  ]
  @ gc_cols minor promoted

let faults_rows ~smoke =
  let side = pick ~smoke 316 16 in
  let g = Generators.grid ~rng:(seeded 131) ~rows:side ~cols:side in
  List.map
    (fun drop -> fault_case ~drop ~duplicate:(drop /. 2.) ~seed:41 ~rounds:2 g)
    [ 0.0; 0.05; 0.1; 0.2; 0.3 ]

(* ------------------------------------------------------------------ *)
(* REPAIR — the self-healing maintenance layer under permanent churn:
   detection latency and repair rounds vs k (a dominator fail-stop, and
   a tree-edge cut, which on a tree host severs the whole subtree and
   forces a takeover election), plus the steady-state heartbeat
   overhead.  Both latencies are asserted against their configured lease
   multiples: detection within (lease+1) heartbeat periods plus the
   wave's propagation slack, repair within two lease cycles plus the
   takeover flood — all O(k) for beta = k+1 and the partition's O(k)
   radius.  Every final state must be oracle-clean. *)

let repair_case ~scenario g ~k ~events ~fault_round : row =
  let open Kdom_congest in
  let plan =
    Cluster.plan_of_partition (Dom_partition.partition g (Dom_partition.run g ~k))
  in
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
  let what = Printf.sprintf "repair bench: %s at k=%d" scenario k in
  Oracle.expect_ok what
    (Oracle.eventual_k_domination g ~alive
       ~dead_edges:(Engine.Churn.final_edges_down churn)
       ~centers:(Repair.live_centers rep alive) ~bound:(Graph.n g));
  let detect, repair =
    if events = [] then begin
      if rep.Repair.suspicions > 0 || rep.Repair.repair_frames > 0 then
        failwith (what ^ " generated repair traffic");
      (-1, -1)
    end
    else begin
      if rep.Repair.first_suspect < 0 then failwith (what ^ " was never detected");
      let detect = rep.Repair.first_suspect - fault_round in
      let repair = max 0 (rep.Repair.last_repair - rep.Repair.first_suspect) in
      if detect > detect_bound then
        failwith (Printf.sprintf "%s detected in %d rounds > bound %d" what detect detect_bound);
      if repair > repair_bound then
        failwith (Printf.sprintf "%s repaired in %d rounds > bound %d" what repair repair_bound);
      (detect, repair)
    end
  in
  let rounds = stats.Engine.rounds in
  [
    ("scenario", str scenario); ("n", int (Graph.n g)); ("k", int k);
    ("beta", int beta); ("lease", int lease); ("dmax", int dmax);
    ("detection_latency", int detect); ("detection_bound", int detect_bound);
    ("repair_rounds", int repair); ("repair_bound", int repair_bound);
    ("hb_frames", int rep.Repair.hb_frames);
    ("repair_frames", int rep.Repair.repair_frames);
    ("rounds", int rounds);
    ("hb_per_round", num (ratio rep.Repair.hb_frames rounds));
    ("wall_secs", num secs);
  ]
  @ gc_cols minor promoted

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

let repair_rows ~smoke =
  let n, ks, seed = pick ~smoke (2048, [ 1; 2; 4; 8 ], 217) (192, [ 2; 4 ], 611) in
  let fault_round = 7 in
  List.concat_map
    (fun k ->
      let g = Generators.random_tree ~rng:(seeded (seed + k)) n in
      let plan =
        Cluster.plan_of_partition (Dom_partition.partition g (Dom_partition.run g ~k))
      in
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

(* ------------------------------------------------------------------ *)
(* TRACE-OVERHEAD — the engine's zero-dispatch guarantee: running with the
   default sink and with an explicit [Sink.null] take the same hot path
   (physical-equality guard in [exec]), so their costs must agree.  A live
   [Trace] sink is also measured, informationally.  Trials are interleaved
   and the minimum kept, so clock drift and scheduler noise hit both sides
   equally. *)

let trace_overhead_rows ~smoke =
  let open Kdom_congest in
  let side = pick ~smoke 128 110 and rounds = pick ~smoke 24 20 in
  let trials = pick ~smoke 15 13 and traced_trials = pick ~smoke 15 5 in
  let g = Generators.grid ~rng:(seeded 171) ~rows:side ~cols:side in
  let eng = Engine.create g in
  let algo = flood_algorithm ~rounds in
  let run_default () = ignore (Engine.exec_emit eng algo) in
  let run_null () = ignore (Engine.exec_emit eng ~sink:Engine.Sink.null algo) in
  let run_traced () =
    let tr = Trace.create () in
    ignore (Engine.exec_emit eng ~sink:(Trace.sink tr) algo)
  in
  (* warm-up: page in buffers, trigger any lazy setup *)
  run_default ();
  run_null ();
  let timed f =
    (* settle the heap first so one pass's garbage can't tax the next *)
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
  for _ = 1 to traced_trials do
    let w3, a3 = timed run_traced in
    if w3 < !best_traced then best_traced := w3;
    alloc_traced := a3
  done;
  let _, stats = Engine.exec_emit eng algo in
  let pct a b = 100.0 *. (a -. b) /. b in
  let alloc_delta = pct !alloc_null !alloc_default in
  (* wall time in a shared container jitters well past 2%, so the hard
     gate is on allocation — bit-for-bit deterministic, and the only cost
     a sink can add to the engine's per-message hot loop *)
  if Float.abs alloc_delta > 2.0 then
    failwith
      (Printf.sprintf
         "trace-overhead: Sink.null path allocates %.3f%% off the default path (> 2%%)"
         alloc_delta);
  [
    [
      ("side", int side); ("rounds", int stats.Engine.rounds);
      ("messages", int stats.Engine.messages);
      ("default_secs", num !best_default); ("null_secs", num !best_null);
      ("traced_secs", num !best_traced);
      ("default_alloc_bytes", num !alloc_default);
      ("null_alloc_bytes", num !alloc_null);
      ("traced_alloc_bytes", num !alloc_traced);
      ("null_wall_delta_pct", num (pct !best_null !best_default));
      ("null_alloc_delta_pct", num alloc_delta);
      ("traced_wall_delta_pct", num (pct !best_traced !best_default));
    ];
  ]

(* ------------------------------------------------------------------ *)
(* PAR — the engine's round loop on d > 1 shards ([Engine.exec_emit
   ~domains]) against its one-shard case.  Every run is asserted
   bit-identical to the [domains = 1] baseline (states and stats), so the
   table measures pure sharding overhead/scaling, never divergence.

   A multi-domain row on a host without the cores to back it cannot show
   a speedup: it measures barrier and shard bookkeeping under
   oversubscription.  Such rows are tagged [undersubscribed] and exempt
   from the speedup floor, which holds on the dense 1M-node flood rows
   only (so never at smoke size). *)

(* [partition_for], when given, maps a domain count to an explicit shard
   assignment (degree-balanced LPT); otherwise the engine's contiguous
   default split is used. *)
let par_case ~kernel ~family ?partition_for g mk : row list =
  let open Kdom_congest in
  let host = Domain.recommended_domain_count () in
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
                 "par bench %s/%s: domains=%d diverges from the domains=1 run"
                 kernel family domains);
          bsecs
      in
      let speedup = bsecs /. secs in
      let undersubscribed = domains > host in
      if
        (not undersubscribed) && domains > 1 && kernel = "flood"
        && Graph.n g >= 1_000_000 && speedup < 1.0
      then
        failwith
          (Printf.sprintf
             "par bench %s/%s: domains=%d ran at %.2fx vs domains=1 on a host \
              recommending %d domains"
             kernel family domains speedup host);
      [
        ("kernel", str kernel); ("family", str family);
        ("n", int (Graph.n g)); ("m", int (Graph.m g));
        ("domains", int domains); ("rounds", int stats.Engine.rounds);
        ("messages", int stats.Engine.messages); ("secs", num secs);
        ("secs_per_round", num (secs /. float_of_int (max 1 stats.Engine.rounds)));
        ("speedup_vs_seq", num speedup);
      ]
      @ gc_cols minor promoted
      @ [
          ("host_recommended_domains", int host);
          ("undersubscribed", Json.Bool undersubscribed);
        ])
    [ 1; 2; 4 ]

let par_rows ~smoke =
  let flood () = flood_algorithm ~rounds:(pick ~smoke 3 8) in
  let side = pick ~smoke 1000 64 in
  let g = Generators.grid ~rng:(seeded 7) ~rows:side ~cols:side in
  let grid = par_case ~kernel:"flood" ~family:"grid" g flood in
  let n = pick ~smoke 1_000_000 4_000 in
  (* radius for expected average degree ~6: pi r^2 n = 6 *)
  let radius = sqrt (6.0 /. (Float.pi *. float_of_int n)) in
  let rg = Generators.random_geometric ~rng:(seeded 8) ~n ~radius in
  let rgg = par_case ~kernel:"flood" ~family:"rgg" rg flood in
  (* the same irregular family under the degree-balanced LPT partition *)
  let lpt =
    par_case ~kernel:"flood" ~family:"rgg-lpt"
      ~partition_for:(fun shards -> Generators.shard_partition rg ~shards)
      rg flood
  in
  (* a sparse-frontier kernel: one active node per round, so this row is a
     pure measurement of the per-round barrier cost *)
  let p = Generators.path ~rng:(seeded 9) (pick ~smoke 20_000 2_000) in
  let token = par_case ~kernel:"token" ~family:"path" p (fun () -> token_algorithm) in
  List.concat [ grid; rgg; lpt; token ]

(* ------------------------------------------------------------------ *)
(* DYNAMIC — live dynamic-graph maintenance: incremental repair
   (windowed [Repair.run] + per-cluster watchdog rebuilds) against the
   counterfactual full-FastDOM recompute at every checkpoint, as the
   churn rate sweeps over three graph families (grid, random geometric,
   preferential attachment).  The oracle must be clean at every
   checkpoint, at low/medium churn the incremental path must beat the
   recompute on total rounds — the headline claim of the dynamic layer —
   and the sweep rerun on 4 domains must agree exactly (the engine's
   bit-identical sharding, observed end to end through the dynamic
   layer). *)

(* churn volumes per rate label, halved for the smoke pass *)
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
    let side = pick ~smoke 16 8 in
    Generators.grid ~rng:(seeded seed) ~rows:side ~cols:side
  | "rgg" ->
    let n = pick ~smoke 256 64 in
    let radius = sqrt (6.0 /. (Float.pi *. float_of_int n)) in
    Generators.random_geometric ~rng:(seeded seed) ~n ~radius
  | "pa" ->
    Generators.preferential_attachment ~rng:(seeded seed) ~n:(pick ~smoke 256 64) ~m:2
  | f -> failwith ("dynamic bench: unknown family " ^ f)

let dyn_case ~smoke ~family ~rate (arrivals, insertions, cuts, crashes, departs)
    ~k ~seed : row =
  let base = dyn_family ~smoke family seed in
  let sc =
    Dyn_dom.scenario base ~k ~seed ~arrivals ~insertions ~cuts ~crashes
      ~departs ~bursts:(pick ~smoke 4 3) ~quiescence:10
  in
  let rep, secs, minor, promoted = wall_alloc (fun () -> Dyn_dom.run sc) in
  let open Kdom_congest in
  let what = Printf.sprintf "dynamic bench %s/%s" family rate in
  let sum f = List.fold_left (fun a w -> a + f w) 0 rep.Dynamic.windows in
  let oracle = sum (fun w -> w.Dynamic.w_oracle_failures) in
  if oracle > 0 then
    failwith (Printf.sprintf "%s: %d oracle failures at the checkpoints" what oracle);
  let incremental = rep.Dynamic.total_incremental
  and recompute = rep.Dynamic.total_recompute in
  if rate <> "high" && incremental >= recompute then
    failwith
      (Printf.sprintf "%s: incremental %d rounds did not beat the full recompute %d"
         what incremental recompute);
  [
    ("family", str family); ("rate", str rate);
    ("base_n", int sc.Dyn_dom.base_n);
    ("union_n", int (Graph.n sc.Dyn_dom.union));
    ("union_m", int (Graph.m sc.Dyn_dom.union));
    ("k", int k);
    ("events", int (List.length sc.Dyn_dom.script.Faults.script_events));
    ("windows", int (List.length rep.Dynamic.windows));
    ("suspicions", int (sum (fun w -> w.Dynamic.w_suspicions)));
    ("reparents", int (sum (fun w -> w.Dynamic.w_reparents)));
    ("watchdog_fired", int (sum (fun w -> w.Dynamic.w_watchdog_fired)));
    ("incremental_rounds", int incremental);
    ("recompute_rounds", int recompute);
    ("speedup_vs_recompute", num (ratio recompute incremental));
    ("oracle_failures", int oracle);
    ("fastdom_rounds_initial", int sc.Dyn_dom.fastdom_rounds);
    ("wall_secs", num secs);
  ]
  @ gc_cols minor promoted

let dyn_rows ~smoke =
  let open Kdom_congest in
  let sweep domains =
    Engine.with_domains domains @@ fun () ->
    List.concat_map
      (fun (family, seed) ->
        List.map
          (fun (rate, vols) -> dyn_case ~smoke ~family ~rate vols ~k:2 ~seed)
          (dyn_rates ~smoke))
      [ ("grid", 311); ("rgg", 313); ("pa", 317) ]
  in
  let fingerprint =
    List.map
      (List.filter (fun (key, _) ->
           List.mem key
             [ "family"; "rate"; "incremental_rounds"; "recompute_rounds"; "reparents" ]))
  in
  let rows = sweep 1 in
  if fingerprint rows <> fingerprint (sweep 4) then
    failwith "dynamic bench: the domains=4 sweep diverges from domains=1";
  rows

(* ------------------------------------------------------------------ *)
(* SERVE — the live serving layer (E15): request throughput and hop/latency
   percentiles through the cluster forest, at 100k..1M nodes, with and
   without dominators crashing mid-traffic.  Plans come from a linear-time
   greedy ball cover + Voronoi trees (Cluster.plan_of_centers): the point
   here is serving cost over a (k+1, O(k)) forest, not the FastDOM
   construction, which E1-E12 already price.  Every row is oracle-checked;
   a steady row loses nothing and every request ends answered or
   rejected. *)

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

let serve_case ~family ~mix_name g ~k ~seed ~requests ~crashes : row =
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
  let row ~answered ~rejected ~lost ~frames ~(peak : Serve.report) ~hops ~lats ~rounds
      ~secs ~minor ~promoted =
    [
      ("family", str family); ("mix", str mix_name);
      ("n", int (Graph.n g)); ("m", int (Graph.m g)); ("k", int k);
      ("requests", int requests); ("crashes", int crashes);
      ("answered", int answered); ("rejected", int rejected); ("lost", int lost);
      ("frames", int frames); ("queue_peak", int peak.queue_peak);
      ("queue_peak_node", int peak.queue_peak_node);
      ("hops_p50", int (Serve.percentile hops 50));
      ("hops_p99", int (Serve.percentile hops 99));
      ("latency_p50", int (Serve.percentile lats 50));
      ("latency_p99", int (Serve.percentile lats 99));
      ("rounds", int rounds);
      ("requests_per_sec", num (float_of_int requests /. Float.max 1e-9 secs));
      ("wall_secs", num secs);
    ]
    @ gc_cols minor promoted
  in
  if crashes = 0 then begin
    let (states, stats), secs, minor, promoted =
      wall_alloc (fun () -> Serve.run e cfg)
    in
    let rep = Serve.decode cfg states in
    Oracle.expect_ok label (Serve.check g cfg rep);
    if rep.Serve.lost > 0 then
      failwith (label ^ ": lost requests in a churn-free run");
    if rep.Serve.answered + rep.Serve.rejected <> requests then
      failwith (label ^ ": non-terminal requests in a churn-free run");
    row ~answered:rep.Serve.answered ~rejected:rep.Serve.rejected
      ~lost:rep.Serve.lost ~frames:rep.Serve.frames
      ~peak:rep ~hops:rep.Serve.hop_counts
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
       answered across the handover; requests from crashed origins may
       stay lost *)
    Oracle.expect_ok label (Serve.check_handover g cfg h);
    let p2_answered, p2_rejected, p2_lost, p2_frames =
      match h.Serve.phase2 with
      | None -> (0, 0, 0, 0)
      | Some p2 ->
        (p2.Serve.answered, p2.Serve.rejected, p2.Serve.lost, p2.Serve.frames)
    in
    if p2_lost > 0 then failwith (label ^ ": requests lost after the repair handover");
    let ph1 = h.Serve.phase1 in
    row
      ~answered:(ph1.Serve.answered + p2_answered)
      ~rejected:(ph1.Serve.rejected + p2_rejected)
      ~lost:(ph1.Serve.lost - Array.length h.Serve.retried + p2_lost)
      ~frames:(ph1.Serve.frames + p2_frames)
      ~peak:ph1 ~hops:ph1.Serve.hop_counts
      ~lats:ph1.Serve.latencies ~rounds:cfg.Serve.horizon ~secs ~minor
      ~promoted
  end

let serve_rows ~smoke =
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

(* ------------------------------------------------------------------ *)
(* CODEC — the packed frame arena: the allocation-free emit path on the
   flood and token kernels.  [emit_minor_words] are read from
   [Gc.quick_stat] around the timed run — the "zero-allocation" claim is
   measured, not declared.  The flood gate's budget is a handful of words
   per ROUND (engine bookkeeping + the Gc.quick_stat probe itself),
   against hundreds of thousands of messages per round at 100k nodes —
   per message it is under 0.01 words. *)

let codec_case ~kernel ~family ~trials g algo : row =
  let open Kdom_congest in
  let eng = Engine.create g in
  (* warm-up: page in buffers, trigger any lazy setup *)
  let _, stats = Engine.exec_emit eng algo in
  let secs = ref infinity and minor = ref infinity and promoted = ref infinity in
  for _ = 1 to trials do
    let _, s, mw, pw = wall_alloc (fun () -> ignore (Engine.exec_emit eng algo)) in
    secs := Float.min !secs s;
    minor := Float.min !minor mw;
    promoted := Float.min !promoted pw
  done;
  let rounds = stats.Engine.rounds in
  let per_round = !minor /. float_of_int (max 1 rounds) in
  if kernel = "flood" && per_round > 2048.0 then
    failwith
      (Printf.sprintf
         "codec bench %s/%s n=%d: emit path allocates %.0f minor words/round \
          (budget 2048)"
         kernel family (Graph.n g) per_round);
  [
    ("kernel", str kernel); ("family", str family);
    ("n", int (Graph.n g)); ("m", int (Graph.m g));
    ("rounds", int rounds); ("messages", int stats.Engine.messages);
    ("emit_secs", num !secs);
    ("emit_msgs_per_sec", num (float_of_int stats.Engine.messages /. Float.max 1e-9 !secs));
    ("emit_minor_words", num !minor);
    ("emit_minor_words_per_round", num per_round);
    ("emit_promoted_words", num !promoted);
  ]

let codec_rows ~smoke =
  if smoke then
    [
      codec_case ~kernel:"flood" ~family:"grid" ~trials:2 (grid_of ~seed:41 2_304)
        (flood_algorithm ~rounds:8);
      codec_case ~kernel:"token" ~family:"path" ~trials:2 (path_of 2_000)
        token_algorithm;
    ]
  else
    [
      codec_case ~kernel:"flood" ~family:"grid" ~trials:3 (grid_of ~seed:41 100_000)
        (flood_algorithm ~rounds:12);
      codec_case ~kernel:"flood" ~family:"grid" ~trials:2 (grid_of ~seed:43 1_000_000)
        (flood_algorithm ~rounds:6);
      codec_case ~kernel:"token" ~family:"path" ~trials:3 (path_of 10_000)
        token_algorithm;
    ]

(* ------------------------------------------------------------------ *)
(* CHAOS — end-to-end frame integrity under composed fault storms, in
   three row kinds:

   - guard: the grid flood on the zero-allocation emit path with the
     CRC-16 guard off vs on — the integrity tax on the hottest loop.  The
     tax is a wall-clock gate (< 15%), asserted at full size only: fixed
     per-run costs dominate the CI-size grid;
   - detect: the same flood under engine-level corruption at a sweep of
     flip probabilities — injected / detected / truncated counts and the
     detection rate, which must be 1.0 (every garbled frame rejected
     before delivery; a CRC collision fails the bench);
   - storm: {!Chaos.run_message} under the named presets at async scale —
     the delivered-correct rate is 1.0 by construction (the runner asserts
     bit-identity with the fault-free synchronous run), so the interesting
     quantities are the retransmit overhead and the rejected-frame
     counts. *)

let chaos_guard_case ~smoke ~trials g ~rounds : row =
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
  let on_secs = best (fun () -> ignore (Engine.exec_emit ~guard:true eng ea)) in
  let delta = 100.0 *. ((on_secs /. Float.max 1e-9 off_secs) -. 1.0) in
  if (not smoke) && delta > 15.0 then
    failwith
      (Printf.sprintf
         "chaos bench: CRC guard costs %.1f%% on the n=%d flood (< 15%% required)"
         delta (Graph.n g));
  let stats = snd on_warm in
  [
    ("kind", str "guard"); ("n", int (Graph.n g)); ("m", int (Graph.m g));
    ("rounds", int stats.Engine.rounds); ("messages", int stats.Engine.messages);
    ("guard_off_secs", num off_secs); ("guard_on_secs", num on_secs);
    ("guard_delta_pct", num delta);
  ]

let chaos_detect_case g ~rounds ~flip : row =
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
  [
    ("kind", str "detect"); ("n", int (Graph.n g)); ("flip", num flip);
    ("injected", int injected); ("detected", int detected);
    ("truncated", int truncated);
    ( "detection_rate",
      num (if injected = 0 then 1.0 else ratio (detected + truncated) injected) );
    ("secs", num secs);
  ]

let chaos_storm_case ~storm_name ~storm ~algo g case : row =
  let open Kdom_congest in
  let v = Chaos.run_message ~seed:7 ~storm g case in
  [
    ("kind", str "storm"); ("storm", str storm_name); ("algo", str algo);
    ("n", int (Graph.n g)); ("pulses", int v.Chaos.v_pulses);
    ("frames", int v.Chaos.v_frames); ("retransmits", int v.Chaos.v_retransmits);
    ("retransmit_overhead", num (ratio v.Chaos.v_retransmits v.Chaos.v_frames));
    ("rejected", int v.Chaos.v_corrupted); ("injected", int v.Chaos.v_injected);
    ("delivered_correct_rate", num 1.0);
  ]

let chaos_rows ~smoke =
  let open Kdom_congest in
  let rounds = pick ~smoke 12 8 in
  let big = grid_of ~seed:41 (pick ~smoke 100_000 2_304) in
  let guard = chaos_guard_case ~smoke ~trials:(pick ~smoke 3 2) big ~rounds in
  let detects =
    List.map
      (fun flip -> chaos_detect_case big ~rounds ~flip)
      [ 1e-5; 1e-4; 1e-3; 1e-2 ]
  in
  let sg = Generators.gnp_connected ~rng:(seeded 19) ~n:(pick ~smoke 48 20) ~p:0.2 in
  let bfs_case =
    Chaos.Case
      ( "bfs",
        Kdom.Bfs_tree.max_words,
        (fun () -> Kdom.Bfs_tree.algorithm sg ~root:0),
        fun states ->
          let info = Kdom.Bfs_tree.info_of_states sg ~root:0 states in
          Oracle.expect_ok "bfs"
            (Oracle.bfs_tree sg ~root:0 ~parent:info.parent ~depth:info.depth) )
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
          (fun (algo, case) -> chaos_storm_case ~storm_name ~storm ~algo sg case)
          [ ("bfs", bfs_case); ("leader", leader_case) ])
      [
        ("drizzle", Chaos.drizzle);
        ("squall", Chaos.squall);
        ("hurricane", Chaos.hurricane);
      ]
  in
  (guard :: detects) @ storms

(* ------------------------------------------------------------------ *)

type mode = { name : string; claim : string; rows : smoke:bool -> row list }

let modes =
  [
    {
      name = "engine";
      claim =
        "port-indexed engine >= 3x reference messages/sec on the 100k-node \
         grid; both backends' stats agree on every row";
      rows = engine_rows;
    };
    {
      name = "sched";
      claim =
        "a round costs O(receivers + woken), not O(live): hinted engine vs \
         the same engine on the dense schedule (stats agree); token \
         steps 1 node per round after init, census/path <= 4(k+1); token >= \
         5x at n=10k";
      rows = sched_rows;
    };
    {
      name = "faults";
      claim =
        "quiescence at every drop rate; frames/logical = 2 + O(drop); sync \
         traffic stays ~1 msg/edge/direction/pulse (§1.2 charge)";
      rows = faults_rows;
    };
    {
      name = "repair";
      claim =
        "detection within (lease+1) heartbeat periods + wave slack; repair \
         within two lease cycles + the takeover flood; oracle-clean; \
         heartbeat overhead identical steady vs faulty";
      rows = repair_rows;
    };
    {
      name = "trace-overhead";
      claim =
        "Sink.null path == default path (same code: allocation within 2%); \
         live Trace sink measured for reference";
      rows = trace_overhead_rows;
    };
    {
      name = "par";
      claim =
        "run ~domains:d is bit-identical to ~domains:1; no slowdown on the \
         1M-node floods where the host has the cores";
      rows = par_rows;
    };
    {
      name = "dynamic";
      claim =
        "oracle-clean at every quiescent checkpoint; at low/medium churn the \
         incremental path (windowed repair + local watchdog rebuilds) beats a \
         per-checkpoint FastDOM recompute on total rounds; domains=4 agrees";
      rows = dyn_rows;
    };
    {
      name = "serve";
      claim =
        "lookups/publishes answer in exactly 2*depth <= 2k hops, routes in \
         2*tree_distance; hotspot mixes pay queueing latency, never wider \
         frames; with dominators crashing mid-traffic, every \
         surviving-component request is answered after the repair handover";
      rows = serve_rows;
    };
    {
      name = "codec";
      claim = "~0 minor words/round on the grid flood (budget 2048 words/round)";
      rows = codec_rows;
    };
    {
      name = "chaos";
      claim =
        "guard tax < 15% on the 100k-node grid flood; detection rate 1.0 at \
         every flip probability; storms recovered bit-identically with \
         bounded retransmit overhead";
      rows = chaos_rows;
    };
  ]

let run_mode ~smoke m =
  header (String.uppercase_ascii m.name ^ if smoke then " (smoke)" else "") m.claim;
  let rows = m.rows ~smoke in
  table rows;
  if not smoke then write m.name rows

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
    ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
    ("e11", e11); ("e12", e12);
  ]

let usage () =
  prerr_string
    "usage: main.exe [e1 .. e12]     print the paper's tables (all when none is named)\n\
    \       main.exe MODE [--smoke]  run one bench mode: full size writes \
     BENCH_MODE.json;\n\
    \                                --smoke runs CI size and writes nothing\n\
    \       main.exe all [--smoke]   run every bench mode\n";
  prerr_endline ("modes: " ^ String.concat " " (List.map (fun m -> m.name) modes));
  exit 2

let () =
  let find name = List.find_opt (fun m -> m.name = name) modes in
  match List.tl (Array.to_list Sys.argv) with
  | ([ name ] | [ name; "--smoke" ]) as args when name = "all" || find name <> None ->
    let smoke = List.length args = 2 in
    List.iter (run_mode ~smoke) (Option.fold ~none:modes ~some:(fun m -> [ m ]) (find name))
  | names when List.for_all (fun a -> List.mem_assoc a experiments) names ->
    pf "kdom benchmark harness — Kutten & Peleg, PODC'95 reproduction@.";
    pf "(rounds are synchronous CONGEST rounds; see DESIGN.md for the charge model)@.";
    List.iter (fun (name, f) -> if names = [] || List.mem name names then f ()) experiments
  | _ -> usage ()
