(* Self-healing k-dominating sets: the churn layer and the repair protocol.

   Four groups:
   - crash windows: the half-open [at <= t < recover] semantics of the
     async fault plan, back-to-back windows, and the typed rejection of
     overlapping windows ([Faults.Overlapping_crashes]).
   - churn: the synchronous churn schedule applied identically by the
     port-indexed engine and the reference runtime (differential test on a
     deterministic gossip), and the [crashed] sink counter.
   - repair: quiescence (a churn-free run is heartbeat-only and leaves the
     plan untouched, sparse and dense schedules agreeing round for
     round), targeted dominator-crash and tree-edge-cut scenarios with
     detection-latency bounds, and the qcheck property — random trees,
     random k, seeded churn ending by round T, and every surviving
     component re-dominated ([Oracle.eventual_k_domination]).  The 3-word
     budget is enforced on every execution: [Repair.run] passes
     [Repair.max_words] to the engine, so an over-wide frame fails the
     test with [Congestion_violation]. *)

open Kdom_graph
open Kdom_congest
module S = Engine.Sink

(* ------------------------------------------------------------------ *)
(* Crash windows (async fault plan) *)

let test_crash_window_half_open () =
  let g = Generators.path ~rng:(Rng.create 3) 4 in
  let e = Engine.create g in
  let crashes =
    [
      { Faults.node = 0; at = 1.0; recover = Some 3.0 };
      (* back-to-back windows on node 1: legal, seamlessly down *)
      { Faults.node = 1; at = 2.0; recover = Some 5.0 };
      { Faults.node = 1; at = 5.0; recover = Some 6.0 };
      { Faults.node = 2; at = 1.0; recover = None };
    ]
  in
  let p = Faults.compile e (Faults.lossy ~crashes ~seed:1 ()) in
  let down node time = Faults.down p ~node ~time in
  Alcotest.(check bool) "up before the window" false (down 0 0.999);
  Alcotest.(check bool) "down at the crash instant" true (down 0 1.0);
  Alcotest.(check bool) "down just before recovery" true (down 0 2.999);
  Alcotest.(check bool) "up at the recovery instant" false (down 0 3.0);
  Alcotest.(check (option (float 1e-9))) "next_up walks to the recovery"
    (Some 3.0)
    (Faults.next_up p ~node:0 ~time:1.5);
  Alcotest.(check bool) "down across a back-to-back seam" true (down 1 5.0);
  Alcotest.(check (option (float 1e-9)))
    "next_up walks through back-to-back windows" (Some 6.0)
    (Faults.next_up p ~node:1 ~time:2.5);
  Alcotest.(check bool) "permanent crash stays down" true (down 2 1e9);
  Alcotest.(check (option (float 1e-9))) "no next_up after a permanent crash"
    None
    (Faults.next_up p ~node:2 ~time:2.0);
  Alcotest.(check (option (float 1e-9))) "next_up of an up node is now"
    (Some 0.5)
    (Faults.next_up p ~node:3 ~time:0.5)

let expect_overlap node crashes =
  let g = Generators.path ~rng:(Rng.create 3) 4 in
  let e = Engine.create g in
  match Faults.compile e (Faults.lossy ~crashes ~seed:1 ()) with
  | _ -> Alcotest.fail "overlapping crash windows were accepted"
  | exception Faults.Overlapping_crashes v ->
    Alcotest.(check int) "offending node" node v

let test_overlapping_windows_rejected () =
  expect_overlap 1
    [
      { Faults.node = 1; at = 1.0; recover = Some 4.0 };
      { Faults.node = 1; at = 3.0; recover = Some 6.0 };
    ];
  (* a window scheduled after a permanent crash can never run *)
  expect_overlap 2
    [
      { Faults.node = 2; at = 1.0; recover = None };
      { Faults.node = 2; at = 5.0; recover = Some 6.0 };
    ];
  (* order in the spec must not matter *)
  expect_overlap 1
    [
      { Faults.node = 1; at = 3.0; recover = Some 6.0 };
      { Faults.node = 1; at = 1.0; recover = Some 4.0 };
    ]

(* ------------------------------------------------------------------ *)
(* Churn: engine vs reference runtime *)

(* Deterministic bounded gossip: every round below the limit, broadcast the
   largest id seen so far.  Insensitive to scheduling, so any divergence
   between the executors is a churn-application bug. *)
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

let test_engine_reference_churn_differential () =
  List.iter
    (fun seed ->
      let g = Generators.gnp_connected ~rng:(Rng.create seed) ~n:12 ~p:0.3 in
      let events =
        Faults.random_churn g ~seed:(seed + 7) ~crashes:2 ~edge_cuts:3 ~last:6
      in
      let e = Engine.create g in
      let churn = Engine.Churn.compile e events in
      let s1, st1 =
        Engine.exec_emit ~max_words:1 ~churn e (gossip_algorithm g ~rounds:10)
      in
      (* the schedule is reset on entry, so the same compiled value drives
         the reference run *)
      let s2, st2 =
        Runtime.run_reference ~max_words:1 ~churn g (gossip_algorithm g ~rounds:10)
      in
      if s1 <> s2 then
        Alcotest.failf "seed %d: engine and reference states differ under churn"
          seed;
      Alcotest.(check int) "same round count" st1.Engine.rounds
        st2.Engine.rounds;
      Alcotest.(check int) "same delivered count" st1.Engine.messages
        st2.Engine.messages)
    [ 5; 23; 71 ]

(* A crash of a node in the [Always] set while other nodes run on hints
   (the sparse scheduler): the crashed node must not step in its crash
   round, in any executor.  Node 0 pings node 1 every round until it
   crashes at round 3; node 1 wakes by timer at round 9 and halts. *)
let test_crashed_always_node_sparse () =
  let alg : int Engine.ealgorithm =
    {
      Engine.einit = (fun _ v -> v * 1000);
      estep =
        (fun _ ~round ~node st _ib em ->
          if round > 8 then -1
          else begin
            if node = 0 then Engine.Emit.frame1 em ~dst:1 round;
            st + 1
          end);
      ehalted = (fun st -> st < 0);
      ewake = (fun st -> if st >= 0 && st < 1000 then Engine.Always else Engine.At 9);
    }
  in
  let g = Generators.path ~rng:(Rng.create 1) 2 in
  let e = Engine.create g in
  let churn = Engine.Churn.compile e [ Engine.Churn.Crash { node = 0; at = 3 } ] in
  let rs, rst = Runtime.run_reference ~churn g alg in
  Alcotest.(check (array int)) "reference: node 0 stepped rounds 0..2" [| 3; -1 |] rs;
  List.iter
    (fun domains ->
      let s, st = Engine.exec_emit ~churn ~domains e alg in
      let what = Printf.sprintf "domains=%d" domains in
      Alcotest.(check (array int)) (what ^ ": states") rs s;
      Alcotest.(check int) (what ^ ": messages") rst.Engine.messages st.Engine.messages)
    [ 1; 2 ]

(* Every domain count must make the same churn observations: at 2 and 4
   domains, final states, stats and per-round [crashed]/[dropped] sink
   counters identical to the one-domain run, and states and stats equal
   to the reference simulator's.  Churn exercises exactly the
   serial-at-barrier paths of the round loop (in-flight frame
   invalidation, liveness flips, v_min recompute). *)
let test_sharded_churn_differential () =
  List.iter
    (fun seed ->
      let g = Generators.gnp_connected ~rng:(Rng.create seed) ~n:12 ~p:0.3 in
      let events =
        Faults.random_churn g ~seed:(seed + 7) ~crashes:2 ~edge_cuts:3 ~last:6
      in
      let e = Engine.create g in
      let churn = Engine.Churn.compile e events in
      let run domains =
        let sink, rounds = Engine.Sink.counters () in
        let states, stats =
          Engine.exec_emit ~max_words:1 ~sink ~churn ~domains e
            (gossip_algorithm g ~rounds:10)
        in
        (states, stats, rounds ())
      in
      let s1, st1, r1 = run 1 in
      let sr, str =
        Runtime.run_reference ~max_words:1 ~churn g (gossip_algorithm g ~rounds:10)
      in
      List.iter
        (fun domains ->
          let sd, std, rd = run domains in
          if sd <> sr then
            Alcotest.failf "seed %d: states differ from the reference at domains=%d"
              seed domains;
          Alcotest.(check int)
            (Printf.sprintf "seed %d domains=%d: rounds vs reference" seed domains)
            str.Engine.rounds std.Engine.rounds;
          Alcotest.(check int)
            (Printf.sprintf "seed %d domains=%d: messages vs reference" seed domains)
            str.Engine.messages std.Engine.messages;
          if sd <> s1 then
            Alcotest.failf "seed %d: states differ at domains=%d" seed domains;
          Alcotest.(check int)
            (Printf.sprintf "seed %d domains=%d: rounds" seed domains)
            st1.Engine.rounds std.Engine.rounds;
          Alcotest.(check int)
            (Printf.sprintf "seed %d domains=%d: messages" seed domains)
            st1.Engine.messages std.Engine.messages;
          List.iter2
            (fun (a : Engine.Sink.round_info) (b : Engine.Sink.round_info) ->
              if a <> b then
                Alcotest.failf
                  "seed %d domains=%d: round %d records differ \
                   (crashed %d/%d dropped %d/%d)"
                  seed domains a.round a.counts.(S.crashed) b.counts.(S.crashed)
                  a.counts.(S.dropped) b.counts.(S.dropped))
            r1 rd)
        [ 2; 4 ])
    [ 5; 23; 71 ]

let test_crashed_counter_sums () =
  let g = Generators.gnp_connected ~rng:(Rng.create 41) ~n:14 ~p:0.3 in
  let events =
    Faults.random_churn g ~seed:6 ~crashes:3 ~edge_cuts:2 ~last:5
  in
  let e = Engine.create g in
  let churn = Engine.Churn.compile e events in
  let counters, rounds_info = Engine.Sink.counters () in
  let _ =
    Engine.exec_emit ~max_words:1 ~sink:counters ~churn e
      (gossip_algorithm g ~rounds:10)
  in
  let sum =
    List.fold_left
      (fun a (i : Engine.Sink.round_info) -> a + i.counts.(S.crashed))
      0 (rounds_info ())
  in
  Alcotest.(check int) "sink crashed counter sums to the schedule's crashes" 3
    sum;
  let alive = Engine.Churn.final_alive churn in
  let live = Array.fold_left (fun a b -> if b then a + 1 else a) 0 alive in
  Alcotest.(check int) "final_alive agrees" (Graph.n g - 3) live

(* ------------------------------------------------------------------ *)
(* Repair *)

let plan_of g ~k =
  Kdom.Cluster.plan_of_partition
    (Kdom.Dom_partition.partition g (Kdom.Dom_partition.run g ~k))

let max_depth (plan : Repair.plan) = Array.fold_left max 0 plan.depth

let check_survivors_dominated ~what g rep churn ~bound =
  let alive = Engine.Churn.final_alive churn in
  let dead_edges = Engine.Churn.final_edges_down churn in
  Array.iteri
    (fun v a ->
      if a && rep.Repair.dominator_of.(v) < 0 then
        Alcotest.failf "%s: surviving node %d is still orphaned" what v)
    alive;
  Oracle.expect_ok what
    (Oracle.eventual_k_domination g ~alive ~dead_edges
       ~centers:(Repair.live_centers rep alive) ~bound)

let test_quiescent_run () =
  let g = Generators.random_tree ~rng:(Rng.create 11) 20 in
  let plan = plan_of g ~k:2 in
  let cfg = { Repair.plan; beta = 3; lease = 2; dmax = Repair.default_dmax plan; horizon = 40 } in
  let run algo =
    let counters, rounds_info = Engine.Sink.counters () in
    let states, _ =
      Runtime.run ~max_rounds:(cfg.horizon + 2) ~max_words:Repair.max_words
        ~sink:counters g algo
    in
    (states, rounds_info ())
  in
  let algo = Repair.algorithm g cfg in
  let states, infos = run algo in
  let rep = Repair.decode states in
  Alcotest.(check int) "no suspicions" 0 rep.suspicions;
  Alcotest.(check int) "no repair frames" 0 rep.repair_frames;
  Alcotest.(check int) "no suspicion round" (-1) rep.first_suspect;
  if rep.hb_frames = 0 then Alcotest.fail "a quiescent run must heartbeat";
  Alcotest.(check (array int)) "dominators = plan" plan.dominator
    rep.dominator_of;
  Alcotest.(check (array int)) "parents = plan" plan.parent rep.parent_of;
  Alcotest.(check (array int)) "depths = plan" plan.depth rep.depth_of;
  (* the sparse schedule and the dense schedule agree round for round —
     same frames on the wire, same final states *)
  let states_d, infos_d = run { algo with ewake = Engine.always } in
  if states <> states_d then
    Alcotest.fail "sparse and dense runs reached different states";
  Alcotest.(check int) "same round count" (List.length infos)
    (List.length infos_d);
  List.iter2
    (fun (a : Engine.Sink.round_info) (b : Engine.Sink.round_info) ->
      Alcotest.(check int)
        (Printf.sprintf "round %d: same frames sent" a.round)
        a.counts.(S.sent) b.counts.(S.sent);
      Alcotest.(check int)
        (Printf.sprintf "round %d: same frames delivered" a.round)
        a.counts.(S.delivered) b.counts.(S.delivered))
    infos infos_d

(* Crash one dominator mid-run: detection within the lease bound, every
   survivor re-dominated. *)
let test_dominator_crash () =
  let g = Generators.random_tree ~rng:(Rng.create 19) 15 in
  let plan = plan_of g ~k:2 in
  (* the dominator with the most members — the interesting crash *)
  let count = Array.make (Graph.n g) 0 in
  Array.iter (fun d -> count.(d) <- count.(d) + 1) plan.dominator;
  let dom = ref 0 in
  Array.iteri (fun v c -> if c > count.(!dom) then dom := v) count;
  let beta = 3 and lease = 2 in
  let crash_at = 7 in
  let cfg = { Repair.plan; beta; lease; dmax = Repair.default_dmax plan; horizon = 200 } in
  let e = Engine.create g in
  let churn =
    Engine.Churn.compile e [ Engine.Churn.Crash { node = !dom; at = crash_at } ]
  in
  let states, _ = Repair.run ~churn e cfg in
  let rep = Repair.decode states in
  if rep.suspicions = 0 then Alcotest.fail "nobody suspected a dead dominator";
  if rep.first_suspect < crash_at then
    Alcotest.failf "suspicion at round %d precedes the crash at %d"
      rep.first_suspect crash_at;
  (* last wave before the crash reaches depth d by [crash_at + d]; the
     lease then runs [lease * beta + d] rounds, plus one period of grid
     slack *)
  let d = max_depth plan in
  let bound = crash_at + ((lease + 1) * beta) + (2 * d) + 2 in
  if rep.first_suspect > bound then
    Alcotest.failf "detection at round %d exceeds the lease bound %d"
      rep.first_suspect bound;
  if rep.last_repair < rep.first_suspect then
    Alcotest.fail "repair did not complete after the suspicion";
  check_survivors_dominated ~what:"dominator crash" g rep churn
    ~bound:(Graph.n g)

(* Cut a cluster-tree edge: on a tree host this disconnects the subtree, so
   reattach must fail and the takeover election must install a fresh
   dominator in the severed component. *)
let test_tree_edge_cut () =
  let g = Generators.random_tree ~rng:(Rng.create 29) 15 in
  let plan = plan_of g ~k:2 in
  (* the deepest tree edge's child — guarantees a non-trivial severed side *)
  let child = ref (-1) in
  Array.iteri
    (fun v p ->
      if p >= 0 && (!child < 0 || plan.depth.(v) > plan.depth.(!child)) then
        child := v)
    plan.parent;
  if !child < 0 then Alcotest.fail "plan has no tree edge to cut";
  let parent = plan.parent.(!child) in
  let cut_at = 7 in
  let cfg = { Repair.plan; beta = 3; lease = 2; dmax = Repair.default_dmax plan; horizon = 200 } in
  let e = Engine.create g in
  let churn =
    Engine.Churn.compile e
      [
        Engine.Churn.Edge_down { src = parent; dst = !child; at = cut_at };
        Engine.Churn.Edge_down { src = !child; dst = parent; at = cut_at };
      ]
  in
  let states, _ = Repair.run ~churn e cfg in
  let rep = Repair.decode states in
  if rep.suspicions = 0 then Alcotest.fail "nobody suspected the severed edge";
  if rep.repair_frames = 0 then Alcotest.fail "no repair traffic after the cut";
  check_survivors_dominated ~what:"tree-edge cut" g rep churn
    ~bound:(Graph.n g)

let test_validate_plan_rejects () =
  let g = Generators.path ~rng:(Rng.create 31) 4 in
  let reject what plan =
    match Repair.validate_plan g plan with
    | () -> Alcotest.failf "validate_plan accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  reject "a short array"
    { Repair.dominator = [| 0 |]; parent = [| -1 |]; depth = [| 0 |] };
  reject "a root that is not its own dominator"
    {
      Repair.dominator = [| 1; 1; 1; 1 |];
      parent = [| -1; 0; 1; 2 |];
      depth = [| 0; 1; 2; 3 |];
    };
  reject "a non-edge tree link"
    {
      Repair.dominator = [| 0; 0; 0; 0 |];
      parent = [| -1; 0; 0; 2 |];
      (* 2 is not adjacent to 0 on a path *)
      depth = [| 0; 1; 1; 2 |];
    };
  reject "an inconsistent depth"
    {
      Repair.dominator = [| 0; 0; 0; 0 |];
      parent = [| -1; 0; 1; 2 |];
      depth = [| 0; 1; 2; 2 |];
    };
  (* the straight path plan is fine *)
  Repair.validate_plan g
    {
      Repair.dominator = [| 0; 0; 0; 0 |];
      parent = [| -1; 0; 1; 2 |];
      depth = [| 0; 1; 2; 3 |];
    }

(* A node crash and a cut of one of its incident tree edges in the same
   round must compose deterministically: same-round events apply in
   (round, list-position) order before any send of that round, so both
   orderings of the pair produce bit-identical executions — sequential
   and sharded alike.  The crash boundary is half-open in rounds exactly
   like [Faults]'s float windows: the node is down {e at} the crash
   round, so no suspicion can precede it. *)
let test_crash_and_cut_same_round () =
  let g = Generators.random_tree ~rng:(Rng.create 37) 16 in
  let plan = plan_of g ~k:2 in
  (* the busiest dominator and one of its cluster-tree children *)
  let count = Array.make (Graph.n g) 0 in
  Array.iter (fun d -> count.(d) <- count.(d) + 1) plan.dominator;
  let dom = ref 0 in
  Array.iteri (fun v c -> if c > count.(!dom) then dom := v) count;
  let child = ref (-1) in
  Array.iteri (fun v p -> if p = !dom then child := v) plan.parent;
  if !child < 0 then Alcotest.fail "busiest dominator has no tree child";
  let at = 7 in
  let crash = Engine.Churn.Crash { node = !dom; at } in
  let cut =
    [
      Engine.Churn.Edge_down { src = !dom; dst = !child; at };
      Engine.Churn.Edge_down { src = !child; dst = !dom; at };
    ]
  in
  let cfg =
    { Repair.plan; beta = 3; lease = 2; dmax = Repair.default_dmax plan; horizon = 200 }
  in
  let exec events domains =
    Engine.with_domains domains (fun () ->
        let e = Engine.create g in
        let churn = Engine.Churn.compile e events in
        let states, _ = Repair.run ~churn e cfg in
        (states, churn))
  in
  let states, churn = exec (crash :: cut) 1 in
  let rep = Repair.decode states in
  if rep.first_suspect >= 0 && rep.first_suspect < at then
    Alcotest.failf "suspicion at round %d precedes the crash round %d"
      rep.first_suspect at;
  check_survivors_dominated ~what:"crash + cut, same round" g rep churn
    ~bound:(Graph.n g);
  (* the two orderings of the same-round pair are indistinguishable *)
  let states_swapped, _ = exec (cut @ [ crash ]) 1 in
  if states <> states_swapped then
    Alcotest.fail "same-round crash and cut are order-sensitive";
  (* and the sharded engine sees the identical composition *)
  let states_4, _ = exec (crash :: cut) 4 in
  if states <> states_4 then
    Alcotest.fail "same-round crash and cut differ at domains=4"

(* A churn script with zero events drives [Dynamic] through a single
   quiet window that must be heartbeat-only: no suspicions, no repair
   frames, no re-parenting, no watchdog — and exactly the frame counts
   of a bare quiescent [Repair.run] under the same config. *)
let prop_empty_script_heartbeat_only =
  QCheck2.Test.make ~name:"dynamic: empty churn script is heartbeat-only"
    ~count:15 (QCheck2.Gen.int_bound 10_000) (fun seed ->
      let n = 8 + (seed mod 10) in
      let g = Generators.random_tree ~rng:(Rng.create seed) n in
      let k = 1 + (seed mod 3) in
      let plan = plan_of g ~k in
      let script =
        Faults.churn_script g ~seed ~arrivals:[] ~insertions:[] ~cuts:[]
          ~crashes:[] ~departs:[] ()
      in
      let beta = 2 + (seed mod 2) and lease = 2 in
      let dmax = Repair.default_dmax plan in
      let settle = 40 in
      let cfg = Dynamic.{ plan; beta; lease; dmax; settle; bound = n } in
      let rep =
        Dynamic.run
          ~rebuild:(fun ~plan:_ ~members:_ ~down:_ ->
            Alcotest.fail "watchdog fired on a quiescent script")
          ~recompute:(fun ~alive:_ ~down:_ -> 0)
          g cfg script
      in
      let w =
        match rep.Dynamic.windows with
        | [ w ] -> w
        | ws -> Alcotest.failf "expected one window, got %d" (List.length ws)
      in
      Alcotest.(check int) "no suspicions" 0 w.Dynamic.w_suspicions;
      Alcotest.(check int) "no repair frames" 0 w.Dynamic.w_repair_frames;
      Alcotest.(check int) "no re-parenting" 0 w.Dynamic.w_reparents;
      Alcotest.(check int) "no repair latency" 0 w.Dynamic.w_repair_latency;
      (* frame-for-frame the quiescent baseline *)
      let rcfg = { Repair.plan; beta; lease; dmax; horizon = settle } in
      let states, _ =
        Repair.run ~max_rounds:(settle + 2) (Engine.create g) rcfg
      in
      let base = Repair.decode states in
      Alcotest.(check int) "heartbeat count matches the quiescent baseline"
        base.hb_frames w.Dynamic.w_hb_frames;
      Alcotest.(check (array int)) "plan untouched" plan.dominator
        rep.Dynamic.final_plan.Repair.dominator;
      true)

(* The headline property: random tree, random k, seeded churn ending by
   round [last]; once the dust settles every surviving component must again
   be dominated by a live center — reattached across cluster boundaries or
   re-elected by takeover.  The engine enforces the 3-word frame budget
   throughout. *)
let prop_self_healing =
  QCheck2.Test.make ~name:"repair: eventual k-domination under churn"
    ~count:20 (QCheck2.Gen.int_bound 10_000) (fun seed ->
      let n = 8 + (seed mod 13) in
      let g = Generators.random_tree ~rng:(Rng.create seed) n in
      let k = 1 + (seed mod 3) in
      let plan = plan_of g ~k in
      let beta = 2 + (seed mod 3) in
      let lease = 2 in
      let last = 4 + (seed mod 8) in
      let events =
        Faults.random_churn g ~seed:(seed + 7) ~crashes:(1 + (seed mod 2))
          ~edge_cuts:(seed mod 3) ~last
      in
      (* generous stabilization window: doomed adoptions (attaching to a
         neighbor whose own dominator is already gone) cost one extra lease
         cycle each before the takeover wave wins *)
      let horizon = last + (20 * ((lease * beta) + n)) in
      let cfg = { Repair.plan; beta; lease; dmax = Repair.default_dmax plan; horizon } in
      let e = Engine.create g in
      let churn = Engine.Churn.compile e events in
      let states, _ = Repair.run ~churn e cfg in
      let rep = Repair.decode states in
      check_survivors_dominated
        ~what:(Printf.sprintf "qcheck seed %d" seed)
        g rep churn ~bound:n;
      true)

(* ------------------------------------------------------------------ *)
(* Corruption storms over the maintenance protocol *)

let corrupt_tally (c : Engine.Corrupt.spec) =
  Engine.Corrupt.(c.tally.injected, c.tally.detected, c.tally.truncated)

(* Corruption x drop(cut) x crash on the synchronous plane: the repair
   protocol rides out engine-level garbling — detected frames are simply
   dropped, and the heartbeat/lease machinery resends — with identical
   states and corruption verdicts on 1, 2 and 4 domains and the reference
   simulator, and the eventual k-domination oracle clean at the horizon.
   The corruption pass decides
   per (round, port slot), not per executor iteration order, which is
   what the agreement pins down. *)
let test_corrupt_churn_differential () =
  let g = Generators.random_tree ~rng:(Rng.create 31) 18 in
  let n = Graph.n g in
  let plan = plan_of g ~k:2 in
  let beta = 3 and lease = 2 in
  let events = Faults.random_churn g ~seed:5 ~crashes:2 ~edge_cuts:1 ~last:6 in
  let horizon = 6 + (20 * ((lease * beta) + n)) in
  let cfg =
    { Repair.plan; beta; lease; dmax = Repair.default_dmax plan; horizon }
  in
  List.iter
    (fun (what, flip, truncate) ->
      let corrupt = Engine.Corrupt.make ~flip ~burst:2 ~truncate ~seed:44 () in
      let run domains =
        Engine.with_domains domains (fun () ->
            let e = Engine.create g in
            let churn = Engine.Churn.compile e events in
            let tr = Trace.create () in
            let states, _ = Repair.run ~trace:tr ~churn ~corrupt e cfg in
            (states, churn, Trace.rounds tr, corrupt_tally corrupt))
      in
      let s1, churn, infos, t1 = run 1 in
      let injected, detected, truncated = t1 in
      if injected <> detected + truncated then
        Alcotest.failf
          "%s: %d injected <> %d detected + %d truncated — a corrupted \
           frame was delivered"
          what injected detected truncated;
      let rejected =
        List.fold_left
          (fun a (i : Engine.Sink.round_info) -> a + i.counts.(S.corrupted))
          0 infos
      in
      Alcotest.(check int) (what ^ ": trace corrupted = tally rejections")
        (detected + truncated) rejected;
      if flip > 0.0 && injected = 0 then
        Alcotest.failf "%s: the storm never corrupted a frame" what;
      List.iter
        (fun d ->
          let sd, _, _, td = run d in
          if sd <> s1 then Alcotest.failf "%s: %d-domain states differ" what d;
          if td <> t1 then Alcotest.failf "%s: %d-domain tally differs" what d)
        [ 2; 4 ];
      (* the same compiled churn value drives the reference run *)
      let sr, _ =
        Runtime.run_reference ~max_words:Repair.max_words
          ~max_rounds:(horizon + 2) ~churn ~corrupt g (Repair.algorithm g cfg)
      in
      if sr <> s1 then Alcotest.failf "%s: reference states differ" what;
      if corrupt_tally corrupt <> t1 then
        Alcotest.failf "%s: reference tally differs" what;
      check_survivors_dominated ~what g (Repair.decode s1) churn ~bound:n)
    [
      ("corrupt", 5e-3, 2e-3);
      ("corrupt-heavy", 2e-2, 5e-3);
      ("guard-only", 0.0, 0.0);
    ]

let () =
  Alcotest.run "repair"
    [
      ( "crash windows",
        [
          Alcotest.test_case "half-open boundaries" `Quick
            test_crash_window_half_open;
          Alcotest.test_case "overlapping windows rejected" `Quick
            test_overlapping_windows_rejected;
        ] );
      ( "churn",
        [
          Alcotest.test_case "engine = reference under churn" `Quick
            test_engine_reference_churn_differential;
          Alcotest.test_case "d in {2,4} = d=1 = reference, churn" `Quick
            test_sharded_churn_differential;
          Alcotest.test_case "crashed counter sums" `Quick
            test_crashed_counter_sums;
          Alcotest.test_case "crashed Always node under hints" `Quick
            test_crashed_always_node_sparse;
        ] );
      ( "repair",
        [
          Alcotest.test_case "quiescent run is heartbeat-only" `Quick
            test_quiescent_run;
          Alcotest.test_case "dominator crash detected and healed" `Quick
            test_dominator_crash;
          Alcotest.test_case "tree-edge cut forces takeover" `Quick
            test_tree_edge_cut;
          Alcotest.test_case "crash + incident cut, same round" `Quick
            test_crash_and_cut_same_round;
          Alcotest.test_case "validate_plan rejects bad forests" `Quick
            test_validate_plan_rejects;
          Alcotest.test_case "corrupt x churn tri-executor differential" `Quick
            test_corrupt_churn_differential;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_self_healing;
          QCheck_alcotest.to_alcotest prop_empty_script_heartbeat_only;
        ] );
    ]
