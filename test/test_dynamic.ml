(* Live dynamic-graph maintenance: the constructive-churn engine layer,
   the windowed [Dynamic] executor, and the end-to-end [Dyn_dom] wiring.

   Five groups:
   - growth churn: Arrive / Edge_add / Depart applied identically by the
     port-indexed engine and the reference runtime (differential on the
     deterministic gossip), and 2 and 4 domains against one domain and
     the reference.
   - normalize: checkpoint re-anchoring demotes dead nodes, broken
     parents and transient cycles to the joiner sentinel and always
     yields a plan that passes [Repair.validate_plan].
   - churn scripts: determinism in the seed, input validation against
     the union graph, burst/checkpoint shape.
   - dynamic: the grid end-to-end scenario (oracle clean at every
     checkpoint, incremental repair cheaper than the counterfactual
     recompute, bit-identical reports across [Engine.with_domains]),
     and the targeted re-parenting scenario — an inserted chord strictly
     shortens a path cluster, the heartbeat rule must exploit it.
   - generators: the preferential-attachment family (connected, exact
     edge count, hubs, deterministic in the seed). *)

open Kdom_graph
open Kdom_congest

(* ------------------------------------------------------------------ *)
(* Growth churn: engine vs reference, across domain counts *)

type gossip = { neighbors : int list; best : int; halted : bool }

let gossip_algorithm g ~rounds : gossip Engine.ealgorithm =
  let einit _g v =
    {
      neighbors = Array.to_list (Array.map fst (Graph.neighbors g v));
      best = v;
      halted = false;
    }
  in
  let estep _g ~round ~node:_ st inbox em =
    let best = ref st.best in
    for i = 0 to Engine.Inbox.length inbox - 1 do
      best := max !best (Codec.get (Engine.Inbox.read inbox i))
    done;
    let best = !best in
    if round >= rounds then { st with best; halted = true }
    else begin
      List.iter (fun u -> Engine.Emit.frame1 em ~dst:u best) st.neighbors;
      { st with best }
    end
  in
  {
    Engine.einit;
    estep;
    ehalted = (fun st -> st.halted);
    ewake = (fun _ -> Engine.Always);
  }

(* A union graph with one reserved node (10, wired to 0 and 3) and one
   reserved edge (2,7), plus destructive churn — the full event alphabet
   in one schedule. *)
let growth_fixture seed =
  let base = Generators.gnp_connected ~rng:(Rng.create seed) ~n:10 ~p:0.35 in
  let pairs = ref [] in
  Array.iter
    (fun (e : Graph.edge) -> pairs := (e.Graph.u, e.Graph.v) :: !pairs)
    (Graph.edges base);
  let pairs = List.rev !pairs @ [ (0, 10); (3, 10); (2, 7) ] in
  let pairs =
    (* drop a duplicate if the base already has (2,7) *)
    let seen = Hashtbl.create 16 in
    List.filter
      (fun (a, b) ->
        let c = (min a b, max a b) in
        if Hashtbl.mem seen c then false
        else begin
          Hashtbl.replace seen c ();
          true
        end)
      pairs
  in
  let g =
    Graph.of_edges ~n:11 (List.mapi (fun i (a, b) -> (a, b, i + 1)) pairs)
  in
  let e0 = Graph.edge base 0 in
  let cu = e0.Graph.u and cv = e0.Graph.v in
  let events =
    [
      Engine.Churn.Crash { node = 5; at = 2 };
      Engine.Churn.Arrive { node = 10; at = 3 };
      Engine.Churn.Edge_add { src = 2; dst = 7; at = 4 };
      Engine.Churn.Edge_add { src = 7; dst = 2; at = 4 };
      Engine.Churn.Edge_down { src = cu; dst = cv; at = 5 };
      Engine.Churn.Edge_down { src = cv; dst = cu; at = 5 };
      Engine.Churn.Depart { node = 8; at = 6 };
    ]
  in
  (g, events, (cu, cv))

let test_growth_engine_reference_differential () =
  List.iter
    (fun seed ->
      let g, events, (cu, cv) = growth_fixture seed in
      let e = Engine.create g in
      let churn = Engine.Churn.compile e events in
      let s1, st1 =
        Engine.exec_emit ~max_words:1 ~churn e (gossip_algorithm g ~rounds:10)
      in
      let s2, st2 =
        Runtime.run_reference ~max_words:1 ~churn g
          (gossip_algorithm g ~rounds:10)
      in
      if s1 <> s2 then
        Alcotest.failf
          "seed %d: engine and reference states differ under growth churn"
          seed;
      Alcotest.(check int) "same round count" st1.Engine.rounds
        st2.Engine.rounds;
      Alcotest.(check int) "same delivered count" st1.Engine.messages
        st2.Engine.messages;
      let alive = Engine.Churn.final_alive churn in
      Alcotest.(check bool) "the arrival is finally alive" true alive.(10);
      Alcotest.(check bool) "the crash is finally dead" false alive.(5);
      Alcotest.(check bool) "the departure is finally dead" false alive.(8);
      let downs = Engine.Churn.final_edges_down churn in
      Alcotest.(check bool) "the cut edge is finally down" true
        (List.mem (cu, cv) downs);
      Alcotest.(check bool) "the inserted edge is finally up" false
        (List.mem (2, 7) downs))
    [ 13; 47; 101 ]

let test_growth_sharded_differential () =
  List.iter
    (fun seed ->
      let g, events, _ = growth_fixture seed in
      let e = Engine.create g in
      let churn = Engine.Churn.compile e events in
      let run domains =
        Engine.exec_emit ~max_words:1 ~churn ~domains e
          (gossip_algorithm g ~rounds:10)
      in
      let s1, st1 = run 1 in
      let sr, str =
        Runtime.run_reference ~max_words:1 ~churn g (gossip_algorithm g ~rounds:10)
      in
      List.iter
        (fun domains ->
          let sd, std = run domains in
          if sd <> sr then
            Alcotest.failf
              "seed %d: growth states differ from the reference at domains=%d"
              seed domains;
          Alcotest.(check int)
            (Printf.sprintf "seed %d domains=%d: rounds vs reference" seed domains)
            str.Engine.rounds std.Engine.rounds;
          Alcotest.(check int)
            (Printf.sprintf "seed %d domains=%d: messages vs reference" seed domains)
            str.Engine.messages std.Engine.messages;
          if sd <> s1 then
            Alcotest.failf "seed %d: growth states differ at domains=%d" seed
              domains;
          Alcotest.(check int)
            (Printf.sprintf "seed %d domains=%d: messages" seed domains)
            st1.Engine.messages std.Engine.messages)
        [ 2; 4 ])
    [ 13; 47; 101 ]

(* ------------------------------------------------------------------ *)
(* Normalize *)

let path4 () = Generators.path ~rng:(Rng.create 3) 4

let test_normalize_dead_chain () =
  let g = path4 () in
  let plan =
    Repair.
      {
        dominator = [| 0; 0; 0; 0 |];
        parent = [| -1; 0; 1; 2 |];
        depth = [| 0; 1; 2; 3 |];
      }
  in
  (* node 1 dies: 2 and 3 hang off a dead chain and must be demoted *)
  Dynamic.normalize plan ~alive:[| true; false; true; true |];
  Alcotest.(check (array int)) "dominators" [| 0; -1; -1; -1 |]
    plan.Repair.dominator;
  Alcotest.(check (array int)) "parents" [| -1; -1; -1; -1 |]
    plan.Repair.parent;
  Repair.validate_plan g plan

let test_normalize_cycle_broken () =
  let g = path4 () in
  let plan =
    Repair.
      {
        dominator = [| 0; 0; 0; 0 |];
        parent = [| -1; 0; 3; 2 |];
        (* 2 <-> 3 is a transient parent cycle *)
        depth = [| 0; 1; 9; 9 |];
      }
  in
  Dynamic.normalize plan ~alive:[| true; true; true; true |];
  Alcotest.(check int) "cycle node demoted" (-1) plan.Repair.dominator.(2);
  Alcotest.(check int) "cycle follower demoted" (-1) plan.Repair.dominator.(3);
  Repair.validate_plan g plan

let test_normalize_recomputes_depths () =
  let g = path4 () in
  let plan =
    Repair.
      {
        dominator = [| 0; 7; 3; 0 |];
        (* stale dominators *)
        parent = [| -1; 0; 1; 2 |];
        depth = [| 0; 5; 5; 5 |];
        (* stale depths *)
      }
  in
  Dynamic.normalize plan ~alive:[| true; true; true; true |];
  Alcotest.(check (array int)) "dominators follow the parent chain"
    [| 0; 0; 0; 0 |] plan.Repair.dominator;
  Alcotest.(check (array int)) "depths recomputed" [| 0; 1; 2; 3 |]
    plan.Repair.depth;
  Repair.validate_plan g plan

(* ------------------------------------------------------------------ *)
(* Churn scripts *)

let script_union () =
  (* a path 0-1-2-3-4 with a reserved chord (0,4) and reserved node 5 on 2 *)
  Graph.of_edges ~n:6
    [ (0, 1, 1); (1, 2, 2); (2, 3, 3); (3, 4, 4); (0, 4, 5); (2, 5, 6) ]

let test_churn_script_deterministic () =
  let g = script_union () in
  let make seed =
    Faults.churn_script g ~seed ~bursts:2 ~quiescence:5 ~arrivals:[ 5 ]
      ~insertions:[ (0, 4) ] ~cuts:[ (1, 2) ] ~crashes:[ 3 ] ~departs:[] ()
  in
  let s1 = make 42 and s2 = make 42 and s3 = make 43 in
  Alcotest.(check bool) "same seed, same script" true (s1 = s2);
  Alcotest.(check bool) "different seed, different script" true (s1 <> s3);
  (* 1 arrival + 1 crash + 2 directed insert halves + 2 directed cut
     halves *)
  Alcotest.(check int) "event count" 6 (List.length s1.Faults.script_events);
  Alcotest.(check int) "burst count caps the checkpoints" 2
    (List.length s1.Faults.script_checkpoints);
  let sorted = List.sort compare s1.Faults.script_checkpoints in
  Alcotest.(check bool) "checkpoints ascending" true
    (sorted = s1.Faults.script_checkpoints);
  List.iter
    (fun ev ->
      let r = Engine.Churn.round_of ev in
      Alcotest.(check bool) "event within the script" true
        (r >= 0 && r <= s1.Faults.script_last))
    s1.Faults.script_events

let test_churn_script_validates () =
  let g = script_union () in
  let reject what f =
    match f () with
    | (_ : Faults.script) -> Alcotest.failf "churn_script accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  reject "an insertion that is not a union edge" (fun () ->
      Faults.churn_script g ~seed:1 ~arrivals:[] ~insertions:[ (1, 3) ]
        ~cuts:[] ~crashes:[] ~departs:[] ());
  reject "a crash of a non-node" (fun () ->
      Faults.churn_script g ~seed:1 ~arrivals:[] ~insertions:[] ~cuts:[]
        ~crashes:[ 17 ] ~departs:[] ());
  reject "zero quiescence" (fun () ->
      Faults.churn_script g ~seed:1 ~quiescence:0 ~arrivals:[] ~insertions:[]
        ~cuts:[] ~crashes:[ 1 ] ~departs:[] ())

let test_churn_script_empty_is_one_window () =
  let g = script_union () in
  let s =
    Faults.churn_script g ~seed:9 ~arrivals:[] ~insertions:[] ~cuts:[]
      ~crashes:[] ~departs:[] ()
  in
  Alcotest.(check int) "no events" 0 (List.length s.Faults.script_events);
  Alcotest.(check int) "one checkpoint" 1
    (List.length s.Faults.script_checkpoints)

(* ------------------------------------------------------------------ *)
(* Dynamic end to end *)

let grid_scenario () =
  let base = Generators.grid ~rng:(Rng.create 7) ~rows:6 ~cols:6 in
  Kdom.Dyn_dom.scenario base ~k:2 ~seed:7 ~arrivals:3 ~insertions:3 ~cuts:2
    ~crashes:2 ~departs:1 ~bursts:3 ~quiescence:10

let test_dynamic_end_to_end () =
  let sc = grid_scenario () in
  let rep = Kdom.Dyn_dom.run sc in
  Alcotest.(check bool) "at least one window" true (rep.Dynamic.windows <> []);
  List.iter
    (fun (w : Dynamic.window_report) ->
      Alcotest.(check int)
        (Printf.sprintf "checkpoint %d: oracle clean" w.Dynamic.w_checkpoint)
        0 w.Dynamic.w_oracle_failures;
      Alcotest.(check bool)
        (Printf.sprintf "checkpoint %d: incremental <= recompute"
           w.Dynamic.w_checkpoint)
        true
        (w.Dynamic.w_incremental_rounds <= w.Dynamic.w_recompute_rounds))
    rep.Dynamic.windows;
  Alcotest.(check bool) "incremental beats the full recompute" true
    (rep.Dynamic.total_incremental < rep.Dynamic.total_recompute);
  Alcotest.(check bool) "centers survive" true (rep.Dynamic.final_centers <> []);
  (* the final plan is a valid forest over the union graph *)
  Repair.validate_plan sc.Kdom.Dyn_dom.union rep.Dynamic.final_plan;
  (* every event of the scenario was consumed exactly once *)
  let sum f = List.fold_left (fun a w -> a + f w) 0 rep.Dynamic.windows in
  Alcotest.(check int) "arrivals all landed" 3
    (sum (fun w -> w.Dynamic.w_arrived));
  Alcotest.(check int) "insertions all landed" 3
    (sum (fun w -> w.Dynamic.w_inserted));
  Alcotest.(check int) "crashes all landed" 2
    (sum (fun w -> w.Dynamic.w_crashed));
  Alcotest.(check int) "departures all landed" 1
    (sum (fun w -> w.Dynamic.w_departed));
  Alcotest.(check int) "cuts all landed" 2 (sum (fun w -> w.Dynamic.w_cut))

let test_dynamic_domain_determinism () =
  let fingerprint () =
    let sc = grid_scenario () in
    let rep = Kdom.Dyn_dom.run sc in
    ( rep.Dynamic.windows,
      rep.Dynamic.total_incremental,
      rep.Dynamic.total_recompute,
      rep.Dynamic.final_centers,
      Array.copy rep.Dynamic.final_plan.Repair.dominator,
      Array.copy rep.Dynamic.final_plan.Repair.depth )
  in
  let f1 = Engine.with_domains 1 fingerprint in
  List.iter
    (fun d ->
      if Engine.with_domains d fingerprint <> f1 then
        Alcotest.failf "dynamic run differs at domains=%d" d)
    [ 2; 4 ]

(* An inserted chord from the dominator to the tail of a path cluster
   strictly shortens the cluster path; the heartbeat re-parenting rule
   must exploit it without any failure having occurred. *)
let test_reparenting_on_insertion () =
  let union =
    Graph.of_edges ~n:6
      [ (0, 1, 1); (1, 2, 2); (2, 3, 3); (3, 4, 4); (4, 5, 5); (0, 5, 6) ]
  in
  let plan =
    Repair.
      {
        dominator = [| 0; 0; 0; 0; 0; 0 |];
        parent = [| -1; 0; 1; 2; 3; 4 |];
        depth = [| 0; 1; 2; 3; 4; 5 |];
      }
  in
  let script =
    Faults.churn_script union ~seed:5 ~bursts:1 ~quiescence:30 ~arrivals:[]
      ~insertions:[ (0, 5) ] ~cuts:[] ~crashes:[] ~departs:[] ()
  in
  let cfg =
    Dynamic.
      {
        plan;
        beta = 2;
        lease = 2;
        dmax = Repair.default_dmax plan;
        settle = 60;
        bound = 10;
      }
  in
  let rep =
    Dynamic.run
      ~rebuild:(fun ~plan:_ ~members:_ ~down:_ ->
        Alcotest.fail "watchdog must not fire below the bound")
      ~recompute:(fun ~alive:_ ~down:_ -> 0)
      union cfg script
  in
  let reparents =
    List.fold_left (fun a w -> a + w.Dynamic.w_reparents) 0 rep.Dynamic.windows
  in
  Alcotest.(check bool) "at least one opportunistic re-parent" true
    (reparents > 0);
  Alcotest.(check int) "tail node re-anchored on the chord" 0
    rep.Dynamic.final_plan.Repair.parent.(5);
  Alcotest.(check int) "tail depth collapsed to 1" 1
    rep.Dynamic.final_plan.Repair.depth.(5);
  let maxd = Array.fold_left max 0 rep.Dynamic.final_plan.Repair.depth in
  Alcotest.(check bool) "cluster radius shrank below the old tail" true
    (maxd < 5);
  Alcotest.(check int) "no suspicions — purely opportunistic" 0
    (List.fold_left
       (fun a w -> a + w.Dynamic.w_suspicions)
       0 rep.Dynamic.windows)

(* A scenario on the hub-heavy preferential-attachment family: the same
   end-to-end invariants must hold when dominators are high-degree hubs. *)
let test_dynamic_preferential_attachment () =
  let base = Generators.preferential_attachment ~rng:(Rng.create 23) ~n:40 ~m:2 in
  let sc =
    Kdom.Dyn_dom.scenario base ~k:2 ~seed:23 ~arrivals:2 ~insertions:2 ~cuts:1
      ~crashes:2 ~departs:0 ~bursts:2 ~quiescence:10
  in
  let rep = Kdom.Dyn_dom.run sc in
  List.iter
    (fun (w : Dynamic.window_report) ->
      Alcotest.(check int)
        (Printf.sprintf "checkpoint %d: oracle clean" w.Dynamic.w_checkpoint)
        0 w.Dynamic.w_oracle_failures)
    rep.Dynamic.windows;
  Alcotest.(check bool) "incremental beats the full recompute" true
    (rep.Dynamic.total_incremental < rep.Dynamic.total_recompute)

(* ------------------------------------------------------------------ *)
(* Preferential attachment generator *)

let test_preferential_attachment_shape () =
  let gen seed = Generators.preferential_attachment ~rng:(Rng.create seed) ~n:50 ~m:2 in
  let g = gen 5 in
  Alcotest.(check int) "node count" 50 (Graph.n g);
  (* node 1 adds one edge, nodes 2..49 add two each *)
  Alcotest.(check int) "edge count" (1 + (48 * 2)) (Graph.m g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  let maxdeg =
    let best = ref 0 in
    for v = 0 to Graph.n g - 1 do
      best := max !best (Array.length (Graph.neighbors g v))
    done;
    !best
  in
  Alcotest.(check bool) "a hub emerges (max degree > 2m)" true (maxdeg > 4);
  (* deterministic in the seed *)
  let same =
    let h = gen 5 in
    Graph.m g = Graph.m h
    && Array.for_all2
         (fun (a : Graph.edge) (b : Graph.edge) ->
           a.Graph.u = b.Graph.u && a.Graph.v = b.Graph.v && a.Graph.w = b.Graph.w)
         (Graph.edges g) (Graph.edges h)
  in
  Alcotest.(check bool) "deterministic in the seed" true same;
  match Generators.preferential_attachment ~rng:(Rng.create 1) ~n:3 ~m:3 with
  | (_ : Graph.t) -> Alcotest.fail "m >= n was accepted"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "dynamic"
    [
      ( "growth churn",
        [
          Alcotest.test_case "engine = reference under growth" `Quick
            test_growth_engine_reference_differential;
          Alcotest.test_case "d in {2,4} = d=1 = reference, growth" `Quick
            test_growth_sharded_differential;
        ] );
      ( "normalize",
        [
          Alcotest.test_case "dead chain demoted" `Quick
            test_normalize_dead_chain;
          Alcotest.test_case "transient cycle broken" `Quick
            test_normalize_cycle_broken;
          Alcotest.test_case "depths and dominators recomputed" `Quick
            test_normalize_recomputes_depths;
        ] );
      ( "churn scripts",
        [
          Alcotest.test_case "deterministic in the seed" `Quick
            test_churn_script_deterministic;
          Alcotest.test_case "validates against the union graph" `Quick
            test_churn_script_validates;
          Alcotest.test_case "empty script is one quiet window" `Quick
            test_churn_script_empty_is_one_window;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "grid end to end" `Quick test_dynamic_end_to_end;
          Alcotest.test_case "bit-identical across domains" `Quick
            test_dynamic_domain_determinism;
          Alcotest.test_case "insertion triggers re-parenting" `Quick
            test_reparenting_on_insertion;
          Alcotest.test_case "preferential-attachment end to end" `Quick
            test_dynamic_preferential_attachment;
        ] );
      ( "generators",
        [
          Alcotest.test_case "preferential attachment shape" `Quick
            test_preferential_attachment_shape;
        ] );
    ]
