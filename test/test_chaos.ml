(* Composed chaos storms (Chaos): every fault class at once — corruption,
   loss, duplication, reordering, slowdown, crash-recovery, permanent
   kills and edge cuts — under seeded storm schedules, judged by the
   centralized Oracle.  The module's runners already enforce the hard
   invariants (bit-identity across executors, zero corrupted frames
   delivered); these tests drive them across algorithms, presets and
   graph shapes, and pin down the storm-lowering helpers themselves. *)

open Kdom_graph
open Kdom_congest

(* ------------------------------------------------------------------ *)
(* Cases: the shared algorithm battery *)

(* the census and coloring stages are tree-only algorithms *)
let all_cases ?(tree = false) g ~k =
  List.filter_map
    (fun name -> Kdom.Battery.case g ~k name)
    ([ "bfs"; "leader"; "smc"; "pipeline" ]
    @ if tree then [ "coloring"; "census" ] else [])

(* ------------------------------------------------------------------ *)
(* Storm lowering *)

let test_presets_valid () =
  List.iter (fun (_, s) -> Chaos.validate s) Chaos.presets;
  Alcotest.(check bool)
    "calm lowers to no corruption" true
    (Chaos.corrupt_of_storm Chaos.calm ~seed:1 = None);
  (match Chaos.corrupt_of_storm Chaos.hurricane ~seed:1 with
  | None -> Alcotest.fail "hurricane must carry a corruption plane"
  | Some c ->
      Alcotest.(check (float 0.)) "flip" 1e-2 c.Engine.Corrupt.flip;
      Alcotest.(check int) "burst" 3 c.Engine.Corrupt.burst);
  Alcotest.check_raises "unknown preset"
    (Invalid_argument
       "Chaos.storm_of_name: unknown storm \"tsunami\" (expected calm | \
        drizzle | squall | hurricane)") (fun () ->
      ignore (Chaos.storm_of_name "tsunami"));
  (* lookup is case-insensitive and total over the preset list *)
  List.iter
    (fun (name, s) ->
      if Chaos.storm_of_name (String.uppercase_ascii name) <> s then
        Alcotest.failf "storm_of_name %s does not round-trip" name)
    Chaos.presets

let test_validate_rejects () =
  let bad s = try Chaos.validate s; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "flip > 1" true
    (bad { Chaos.calm with flip = 1.5 });
  Alcotest.(check bool) "negative drop" true
    (bad { Chaos.calm with drop = -0.1 });
  Alcotest.(check bool) "burst 0" true (bad { Chaos.calm with burst = 0 });
  Alcotest.(check bool) "slow_factor < 1" true
    (bad { Chaos.calm with slow_factor = 0.5 });
  Alcotest.(check bool) "negative kills" true
    (bad { Chaos.calm with kills = -1 });
  Alcotest.(check bool) "quiescence 0" true
    (bad { Chaos.calm with quiescence = 0 });
  Alcotest.(check bool) "descending ramp" true
    (bad { Chaos.calm with flip = 0.1; ramp = [ (4, 1.0); (2, 2.0) ] })

let test_lowering_deterministic () =
  let g = Generators.random_tree ~rng:(Rng.create 3) 24 in
  let s = Chaos.squall in
  let f1 = Chaos.faults_of_storm g s ~seed:9 in
  let f2 = Chaos.faults_of_storm g s ~seed:9 in
  Alcotest.(check bool) "same crash schedule" true
    (f1.Faults.crashes = f2.Faults.crashes);
  Alcotest.(check int) "crash count" s.Chaos.crashes
    (List.length f1.Faults.crashes);
  (* distinct nodes, non-overlapping half-open windows *)
  let nodes = List.map (fun c -> c.Faults.node) f1.Faults.crashes in
  Alcotest.(check int) "distinct crash nodes"
    (List.length nodes)
    (List.length (List.sort_uniq compare nodes));
  let c1 = Chaos.churn_of_storm g s ~seed:9 in
  let c2 = Chaos.churn_of_storm g s ~seed:9 in
  Alcotest.(check bool) "same churn script" true
    (c1.Faults.script_events = c2.Faults.script_events);
  let kills =
    List.filter_map
      (function Faults.Crash { node; _ } -> Some node | _ -> None)
      c1.Faults.script_events
  in
  Alcotest.(check int) "kill count" s.Chaos.kills (List.length kills);
  let cuts =
    List.filter
      (function Faults.Edge_down _ -> true | _ -> false)
      c1.Faults.script_events
  in
  (* both directed events of each undirected cut *)
  Alcotest.(check int) "cut events" (2 * s.Chaos.cuts) (List.length cuts);
  (* a different seed picks a different schedule (24 nodes, 3 crashes:
     collision odds are negligible across both plans) *)
  let f3 = Chaos.faults_of_storm g s ~seed:10 in
  let c3 = Chaos.churn_of_storm g s ~seed:10 in
  if
    f3.Faults.crashes = f1.Faults.crashes
    && c3.Faults.script_events = c1.Faults.script_events
  then Alcotest.fail "storm lowering ignores the seed"

let test_overflow_rejected () =
  let g = Generators.random_tree ~rng:(Rng.create 3) 4 in
  Alcotest.(check bool) "too many crashes" true
    (try
       ignore
         (Chaos.faults_of_storm g { Chaos.calm with crashes = 5 } ~seed:1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "too many cuts" true
    (try
       ignore (Chaos.churn_of_storm g { Chaos.calm with cuts = 99 } ~seed:1);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Message-level storms: recovered bit for bit *)

let storm_graph seed =
  if seed mod 2 = 0 then (true, Generators.random_tree ~rng:(Rng.create seed) 18)
  else (false, Generators.gnp_connected ~rng:(Rng.create seed) ~n:16 ~p:0.25)

let test_message_presets () =
  let tree, g = storm_graph 2 in
  List.iter
    (fun (name, storm) ->
      List.iter
        (fun case ->
          let v = Chaos.run_message ~seed:41 ~storm g case in
          if storm.Chaos.flip > 0. && v.Chaos.v_injected = 0 then
            Alcotest.failf "%s/%s: the storm never corrupted a frame" name
              v.Chaos.v_name;
          if v.Chaos.v_injected > 0 && v.Chaos.v_retransmits = 0 then
            Alcotest.failf "%s/%s: corrupted frames but no retransmissions"
              name v.Chaos.v_name)
        (all_cases ~tree g ~k:2))
    [ ("drizzle", Chaos.drizzle); ("squall", Chaos.squall) ]

let test_message_hurricane () =
  (* acceptance-grade storm on the full battery, both graph shapes *)
  List.iter
    (fun seed ->
      let tree, g = storm_graph seed in
      List.iter
        (fun case ->
          ignore (Chaos.run_message ~seed:(100 + seed) ~storm:Chaos.hurricane g case))
        (all_cases ~tree g ~k:2))
    [ 2; 3 ]

let test_calm_storm_is_free () =
  (* the identity storm injects nothing and retransmits nothing *)
  let _, g = storm_graph 3 in
  let v = Chaos.run_message ~seed:5 ~storm:Chaos.calm g
      (Option.get (Kdom.Battery.case g ~k:1 "bfs")) in
  Alcotest.(check int) "no injections" 0 v.Chaos.v_injected;
  Alcotest.(check int) "no rejections" 0 v.Chaos.v_corrupted;
  Alcotest.(check int) "no drops" 0 v.Chaos.v_dropped;
  Alcotest.(check int) "no retransmits" 0 v.Chaos.v_retransmits

let prop_message_storms =
  QCheck2.Test.make ~name:"chaos: seeded storms are masked end to end"
    ~count:12 (QCheck2.Gen.int_bound 10_000) (fun seed ->
      let tree, g = storm_graph seed in
      let storm =
        match seed mod 3 with
        | 0 -> Chaos.drizzle
        | 1 -> Chaos.squall
        | _ -> Chaos.hurricane
      in
      let cases = all_cases ~tree g ~k:(1 + (seed mod 3)) in
      let case = List.nth cases (seed mod List.length cases) in
      ignore (Chaos.run_message ~seed ~storm g case);
      true)

(* ------------------------------------------------------------------ *)
(* Maintenance under the permanent plane *)

let plan_of g ~k =
  if Graph.m g = Graph.n g - 1 then
    Kdom.Cluster.plan_of_partition
      (Kdom.Dom_partition.partition g (Kdom.Dom_partition.run g ~k))
  else
    let dom = Kdom.Fastdom_graph.run g ~k in
    Kdom.Cluster.plan_of_partition dom.partition

let test_repair_storms () =
  let g = Generators.random_tree ~rng:(Rng.create 17) 20 in
  let plan = plan_of g ~k:2 in
  List.iter
    (fun (name, storm) ->
      let v, rep = Chaos.run_repair ~seed:23 ~storm g plan in
      Alcotest.(check int)
        (name ^ ": every kill lands") storm.Chaos.kills v.Chaos.v_crashed;
      if storm.Chaos.flip > 0. then (
        if v.Chaos.v_injected = 0 then
          Alcotest.failf "%s: repair storm never corrupted a frame" name;
        Alcotest.(check int)
          (name ^ ": injected = detected + truncated")
          v.Chaos.v_injected
          (v.Chaos.v_detected + v.Chaos.v_truncated);
        Alcotest.(check int)
          (name ^ ": sink corrupted = tally rejections")
          (v.Chaos.v_detected + v.Chaos.v_truncated)
          v.Chaos.v_corrupted);
      if storm.Chaos.kills > 0 && rep.Repair.suspicions = 0 then
        Alcotest.failf "%s: a kill storm must trigger suspicions" name)
    [ ("squall", Chaos.squall); ("hurricane", Chaos.hurricane) ]

let test_serve_storm () =
  let g = Generators.gnp_connected ~rng:(Rng.create 4) ~n:40 ~p:0.15 in
  let plan = plan_of g ~k:2 in
  let requests =
    Kdom.Workload.generate g plan Kdom.Workload.uniform ~seed:11 ~requests:60
      ~window:10
  in
  let dmax = 1 + Array.fold_left max 0 plan.Repair.depth in
  let retry_after = (4 * dmax) + (2 * Array.length requests) + 8 in
  let cfg =
    {
      Serve.plan;
      requests;
      horizon = 10 + (2 * retry_after) + 8;
      retry_after;
      retries = 1;
    }
  in
  let v, h = Chaos.run_serve ~seed:31 ~storm:Chaos.squall g cfg in
  Alcotest.(check bool) "some node was killed" true
    (Array.exists not h.Serve.alive);
  if v.Chaos.v_frames = 0 then Alcotest.fail "the serving phases sent frames"

let () =
  Alcotest.run "chaos"
    [
      ( "storms",
        [
          Alcotest.test_case "presets validate and lower" `Quick
            test_presets_valid;
          Alcotest.test_case "validate rejects malformed storms" `Quick
            test_validate_rejects;
          Alcotest.test_case "lowering is seed-deterministic" `Quick
            test_lowering_deterministic;
          Alcotest.test_case "oversubscribed storms rejected" `Quick
            test_overflow_rejected;
        ] );
      ( "messages",
        [
          Alcotest.test_case "drizzle + squall across the battery" `Slow
            test_message_presets;
          Alcotest.test_case "hurricane across the battery" `Slow
            test_message_hurricane;
          Alcotest.test_case "calm storm is free" `Quick
            test_calm_storm_is_free;
          QCheck_alcotest.to_alcotest prop_message_storms;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "repair rides out squall + hurricane" `Slow
            test_repair_storms;
          Alcotest.test_case "serve hands over under squall" `Slow
            test_serve_storm;
        ] );
    ]
