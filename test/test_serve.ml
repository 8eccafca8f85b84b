(* Serving-layer protocol tests: the message-driven request traffic of
   Serve against its offline oracles.

   - tree_distance is the exact climb/descend hop count on known trees;
   - a steady-state run over a generated workload terminates losslessly
     and passes Serve.check (dominator identity, exact hop counts);
   - the dense-schedule differential: forcing every node awake each
     round must not change a single outcome or frame count;
   - one algorithm value re-runs on one engine and on the reference;
   - the queue peak is attributed to the node whose queue reached it;
   - crash-mid-traffic hands surviving requests to the healed forest
     (Serve.with_repair + check_handover);
   - qcheck: random graphs x mixes stay oracle-clean. *)

open Kdom_graph
open Kdom_congest

let rng seed = Rng.create (0x5e7e + seed)

let plan_for g ~k =
  if Graph.m g = Graph.n g - 1 then
    Kdom.Cluster.plan_of_partition
      (Kdom.Dom_partition.partition g (Kdom.Dom_partition.run g ~k))
  else
    let dom = Kdom.Fastdom_graph.run g ~k in
    Kdom.Cluster.plan_of_partition dom.partition

(* Generous bounds: every request injected in [0, window) finishes well
   before the horizon even when a hotspot serializes the whole load. *)
let config_for g plan ~requests ~window =
  let dmax = Array.fold_left max 0 plan.Repair.depth in
  let retry_after = (4 * dmax) + (2 * Array.length requests) + 8 in
  let horizon = window + (2 * retry_after) + 8 in
  ignore g;
  { Serve.plan; requests; horizon; retry_after; retries = 1 }

let serve g cfg =
  let states, stats = Serve.run (Engine.create g) cfg in
  (Serve.decode cfg states, stats)

(* ------------------------------------------------------------------ *)

let test_tree_distance () =
  (* path 0-1-2-3-4 rooted at 0: distances are |depth differences| plus
     the detour through the LCA, which on a path is just the gap *)
  let plan =
    {
      Repair.dominator = Array.make 5 0;
      parent = [| -1; 0; 1; 2; 3 |];
      depth = [| 0; 1; 2; 3; 4 |];
    }
  in
  Alcotest.(check (option int)) "adjacent" (Some 1) (Serve.tree_distance plan 2 3);
  Alcotest.(check (option int)) "end to end" (Some 4) (Serve.tree_distance plan 0 4);
  Alcotest.(check (option int)) "self" (Some 0) (Serve.tree_distance plan 3 3);
  (* star + outlier tree: LCA detour *)
  let plan2 =
    {
      Repair.dominator = [| 0; 0; 0; 3; 3 |];
      parent = [| -1; 0; 0; -1; 3 |];
      depth = [| 0; 1; 1; 0; 1 |];
    }
  in
  Alcotest.(check (option int)) "via root" (Some 2) (Serve.tree_distance plan2 1 2);
  Alcotest.(check (option int)) "cross-tree" None (Serve.tree_distance plan2 1 4)

let steady_case ~name g ~k ~mix ~seed =
  let plan = plan_for g ~k in
  let requests = Kdom.Workload.generate g plan mix ~seed ~requests:300 ~window:16 in
  let cfg = config_for g plan ~requests ~window:16 in
  let rep, _ = serve g cfg in
  Oracle.expect_ok name (Serve.check g cfg rep);
  Alcotest.(check int) (name ^ ": lossless") 0 rep.Serve.lost;
  Alcotest.(check int)
    (name ^ ": terminal")
    (Array.length requests)
    (rep.Serve.answered + rep.Serve.rejected);
  rep

let test_steady_tree () =
  let g = Generators.random_tree ~rng:(rng 1) 220 in
  ignore (steady_case ~name:"tree/uniform" g ~k:3 ~mix:Kdom.Workload.uniform ~seed:42)

let test_steady_gnp () =
  let g = Generators.gnp_connected ~rng:(rng 2) ~n:180 ~p:0.04 in
  let rep =
    steady_case ~name:"gnp/hotspot" g ~k:2 ~mix:Kdom.Workload.hotspot ~seed:43
  in
  (* hotspot skew concentrates load: some queueing must be visible *)
  Alcotest.(check bool) "queue observed" true (rep.Serve.queue_peak >= 1)

let test_dense_differential () =
  let g = Generators.gnp_connected ~rng:(rng 3) ~n:120 ~p:0.05 in
  let plan = plan_for g ~k:2 in
  let requests =
    Kdom.Workload.generate g plan Kdom.Workload.uniform ~seed:7 ~requests:200
      ~window:12
  in
  let cfg = config_for g plan ~requests ~window:12 in
  let lazy_rep, lazy_stats = serve g cfg in
  let eager_states, eager_stats =
    Runtime.run ~max_rounds:(cfg.horizon + 2) ~max_words:Serve.max_words g
      { (Serve.algorithm g cfg) with ewake = Engine.always }
  in
  let eager_rep = Serve.decode cfg eager_states in
  Alcotest.(check bool) "same outcomes" true
    (lazy_rep.Serve.outcomes = eager_rep.Serve.outcomes);
  Alcotest.(check int) "same frames" lazy_rep.Serve.frames eager_rep.Serve.frames;
  (* wake hints only skip idle work, never change the traffic *)
  Alcotest.(check int) "same engine messages" lazy_stats.Engine.messages
    eager_stats.Engine.messages

(* One algorithm value, run three times: each node's [einit] resets what
   it owns, so a second run on the same engine and a reference run decode
   to the same report as the first. *)
let test_rerunnable () =
  let g = Generators.gnp_connected ~rng:(rng 7) ~n:150 ~p:0.04 in
  let plan = plan_for g ~k:2 in
  let requests =
    Kdom.Workload.generate g plan Kdom.Workload.hotspot ~seed:13 ~requests:300 ~window:8
  in
  let cfg = { Serve.plan; requests; horizon = 8 + (3 * 4) + 200; retry_after = 4; retries = 2 } in
  let algo = Serve.algorithm g cfg in
  let e = Engine.create g in
  let max_rounds = cfg.horizon + 2 and max_words = Serve.max_words in
  let run_engine () = Serve.decode cfg (fst (Engine.exec_emit ~max_rounds ~max_words e algo)) in
  let first = run_engine () in
  let second = run_engine () in
  let reference =
    Serve.decode cfg (fst (Runtime.run_reference ~max_rounds ~max_words g algo))
  in
  Alcotest.(check bool) "retries fired" true (first.Serve.retries_used > 0);
  Alcotest.(check bool) "second engine run" true (first = second);
  Alcotest.(check bool) "reference run" true (first = reference)

(* On a path rooted at 0, every request from the far leaf queues at that
   leaf; requests from the root are answered locally and queue nothing. *)
let test_queue_peak_node () =
  let n = 6 in
  let g = Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1, i + 1))) in
  let plan =
    {
      Repair.dominator = Array.make n 0;
      parent = Array.init n (fun i -> i - 1);
      depth = Array.init n Fun.id;
    }
  in
  let from origin =
    let requests = Array.init 10 (fun _ -> { Serve.origin; kind = Serve.Lookup; at = 0 }) in
    fst (serve g { Serve.plan; requests; horizon = 60; retry_after = 40; retries = 0 })
  in
  let leaf = from (n - 1) in
  Alcotest.(check int) "peak" 10 leaf.Serve.queue_peak;
  Alcotest.(check int) "peak at the leaf" (n - 1) leaf.Serve.queue_peak_node;
  let root = from 0 in
  Alcotest.(check int) "nothing queued" 0 root.Serve.queue_peak;
  Alcotest.(check int) "no peak node" (-1) root.Serve.queue_peak_node

let test_crash_handover () =
  let g = Generators.gnp_connected ~rng:(rng 4) ~n:160 ~p:0.05 in
  let k = 2 in
  let plan = plan_for g ~k in
  let requests =
    Kdom.Workload.generate g plan Kdom.Workload.uniform ~seed:11 ~requests:250
      ~window:12
  in
  let cfg = config_for g plan ~requests ~window:12 in
  let churn = Faults.random_churn g ~seed:5 ~crashes:4 ~edge_cuts:0 ~last:10 in
  let dmax = Array.fold_left max 0 plan.Repair.depth in
  let beta = max 2 (k + 1) and lease = 2 in
  let settle = 12 + (2 * ((2 * beta) + (3 * dmax) + 12)) + Graph.n g in
  let h =
    Serve.with_repair ~beta ~lease ~settle (Engine.create g) cfg ~churn
  in
  Oracle.expect_ok "handover" (Serve.check_handover g cfg h);
  Alcotest.(check bool) "some node crashed" true
    (Array.exists not h.Serve.alive);
  (* the healed forest still k+1-dominates every surviving component *)
  Oracle.expect_ok "healed domination"
    (Oracle.eventual_k_domination g ~alive:h.Serve.alive
       ~dead_edges:h.Serve.dead_edges
       ~centers:(Dynamic.centers_of h.Serve.healed_plan ~alive:h.Serve.alive)
       ~bound:(Repair.default_dmax h.Serve.healed_plan))

let test_validate_rejects () =
  let g = Generators.random_tree ~rng:(rng 6) 20 in
  let plan = plan_for g ~k:2 in
  let bad at requests =
    try
      Serve.validate g { Serve.plan; requests; horizon = 10; retry_after = at; retries = 0 };
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "late injection" true
    (bad 4 [| { Serve.origin = 0; kind = Serve.Lookup; at = 10 } |]);
  Alcotest.(check bool) "bad origin" true
    (bad 4 [| { Serve.origin = 20; kind = Serve.Lookup; at = 0 } |]);
  Alcotest.(check bool) "bad route dst" true
    (bad 4 [| { Serve.origin = 0; kind = Serve.Route (-2); at = 0 } |]);
  Alcotest.(check bool) "zero retry_after" true
    (bad 0 [| { Serve.origin = 0; kind = Serve.Lookup; at = 0 } |])

(* ------------------------------------------------------------------ *)

let prop_serve_oracle_clean =
  QCheck2.Test.make ~name:"serve oracle-clean on random graphs" ~count:25
    QCheck2.Gen.(
      quad (int_bound 10_000) (int_range 20 120) (int_range 1 4) bool)
    (fun (seed, n, k, hot) ->
      let r = Rng.create seed in
      let g =
        if seed mod 2 = 0 then Generators.random_tree ~rng:r n
        else Generators.gnp_connected ~rng:r ~n ~p:(6.0 /. float_of_int n)
      in
      let plan = plan_for g ~k in
      let mix = if hot then Kdom.Workload.hotspot else Kdom.Workload.uniform in
      let requests =
        Kdom.Workload.generate g plan mix ~seed:(seed + 1) ~requests:120
          ~window:10
      in
      let cfg = config_for g plan ~requests ~window:10 in
      let rep, _ = serve g cfg in
      Serve.check g cfg rep = [] && rep.Serve.lost = 0)

let prop_handover_eventual_service =
  QCheck2.Test.make ~name:"crash handover eventually serves survivors"
    ~count:12
    QCheck2.Gen.(triple (int_bound 10_000) (int_range 40 100) (int_range 1 3))
    (fun (seed, n, crashes) ->
      let r = Rng.create seed in
      let g = Generators.gnp_connected ~rng:r ~n ~p:(6.0 /. float_of_int n) in
      let k = 2 in
      let plan = plan_for g ~k in
      let requests =
        Kdom.Workload.generate g plan Kdom.Workload.uniform ~seed:(seed + 1)
          ~requests:100 ~window:10
      in
      let cfg = config_for g plan ~requests ~window:10 in
      let churn =
        Faults.random_churn g ~seed:(seed + 2) ~crashes ~edge_cuts:0 ~last:8
      in
      let dmax = Array.fold_left max 0 plan.Repair.depth in
      let beta = max 2 (k + 1) in
      let settle = 10 + (2 * ((2 * beta) + (3 * dmax) + 12)) + n in
      let h =
        Serve.with_repair ~beta ~lease:2 ~settle (Engine.create g) cfg ~churn
      in
      Serve.check_handover g cfg h = [])

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "tree distance" `Quick test_tree_distance;
          Alcotest.test_case "steady tree workload" `Quick test_steady_tree;
          Alcotest.test_case "steady gnp hotspot" `Quick test_steady_gnp;
          Alcotest.test_case "dense-schedule differential" `Quick
            test_dense_differential;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "one algorithm value re-runs" `Quick test_rerunnable;
          Alcotest.test_case "queue peak node" `Quick test_queue_peak_node;
        ] );
      ( "handover",
        [ Alcotest.test_case "crash mid-traffic" `Quick test_crash_handover ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_serve_oracle_clean; prop_handover_eventual_service ] );
    ]
