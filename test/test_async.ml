(* Tests for the asynchronous α-synchronizer runtime (Async): executing the
   same node programs under random link delays must give bit-identical
   results to the synchronous runtime — the §1.2 claim, demonstrated.  The
   runs go through [Async.run_reliable] on a fault-free network. *)

open Kdom_graph
open Kdom_congest

let graphs seed =
  let r = Rng.create seed in
  [
    ("path20", Generators.path ~rng:r 20);
    ("star15", Generators.star ~rng:r 15);
    ("gnp60", Generators.gnp_connected ~rng:r ~n:60 ~p:0.08);
    ("grid5x5", Generators.grid ~rng:r ~rows:5 ~cols:5);
    ("tree40", Generators.random_tree ~rng:r 40);
    ("single", Generators.path ~rng:r 1);
  ]

(* The synchronizer report of a fault-free asynchronous run. *)
let run_async ~rng ?max_delay g algo =
  let states, frep = Async.run_reliable ~rng ?max_delay g algo in
  (states, frep.Async.report)

let test_bfs_same_states () =
  List.iter
    (fun (name, g) ->
      let algo = Kdom.Bfs_tree.algorithm g ~root:0 in
      let sync_states, sync_stats = Runtime.run g algo in
      let async_states, report = run_async ~rng:(Rng.create 99) g algo in
      let sync_info = Kdom.Bfs_tree.info_of_states g ~root:0 sync_states in
      let async_info = Kdom.Bfs_tree.info_of_states g ~root:0 async_states in
      Alcotest.(check (array int)) (name ^ " same depths") sync_info.depth
        async_info.depth;
      Alcotest.(check (array int)) (name ^ " same parents") sync_info.parent
        async_info.parent;
      Alcotest.(check int) (name ^ " same height") sync_info.height async_info.height;
      (* the synchronizer simulates at least as many pulses as sync rounds *)
      Alcotest.(check bool)
        (Printf.sprintf "%s pulses %d >= sync rounds %d" name report.pulses
           sync_stats.rounds)
        true
        (report.pulses >= sync_stats.rounds);
      Alcotest.(check int) (name ^ " same algorithm traffic") sync_stats.messages
        report.alg_messages)
    (graphs 1)

let test_bfs_many_delay_regimes () =
  let g = Generators.gnp_connected ~rng:(Rng.create 2) ~n:50 ~p:0.1 in
  let algo = Kdom.Bfs_tree.algorithm g ~root:0 in
  let sync_states, _ = Runtime.run g algo in
  let reference = Kdom.Bfs_tree.info_of_states g ~root:0 sync_states in
  List.iter
    (fun (seed, max_delay) ->
      let states, report =
        run_async ~rng:(Rng.create seed) ~max_delay g algo
      in
      let info = Kdom.Bfs_tree.info_of_states g ~root:0 states in
      Alcotest.(check (array int))
        (Printf.sprintf "seed=%d d=%.1f depths" seed max_delay)
        reference.depth info.depth;
      Alcotest.(check bool) "time positive" true (report.async_time > 0.0))
    [ (1, 1.0); (2, 1.0); (3, 0.1); (4, 5.0); (5, 20.0) ]

(* a deliberately chatty algorithm: every node floods the max id it has
   seen for a fixed number of rounds *)
type flood = { best : int; neighbors : int list; rounds_left : int }

let flood_algorithm rounds : flood Engine.ealgorithm =
  {
    einit =
      (fun g v ->
        {
          best = v;
          neighbors = Array.to_list (Array.map fst (Graph.neighbors g v));
          rounds_left = rounds;
        });
    ehalted = (fun st -> st.rounds_left = 0);
    estep =
      (fun _g ~round:_ ~node:_ st inbox em ->
        let best = ref st.best in
        for i = 0 to Engine.Inbox.length inbox - 1 do
          best := max !best (Codec.get (Engine.Inbox.read inbox i))
        done;
        let st = { st with best = !best; rounds_left = st.rounds_left - 1 } in
        if st.rounds_left > 0 then
          List.iter (fun u -> Engine.Emit.frame1 em ~dst:u st.best) st.neighbors;
        st);
    (* genuinely dense: every node floods every round until the deadline *)
    ewake = Engine.always;
  }

let test_flood_same_states () =
  List.iter
    (fun (name, g) ->
      let rounds = 2 + Traversal.diameter g in
      let algo = flood_algorithm rounds in
      let sync_states, _ = Runtime.run g algo in
      let async_states, _ = run_async ~rng:(Rng.create 7) g algo in
      Array.iteri
        (fun v (st : flood) ->
          Alcotest.(check int) (name ^ " same best") st.best async_states.(v).best)
        sync_states;
      (* and the flood actually converged to the global max *)
      Array.iter
        (fun (st : flood) ->
          Alcotest.(check int) (name ^ " max id") (Graph.n g - 1) st.best)
        async_states)
    (graphs 3)

let test_synchronizer_overhead_accounting () =
  let g = Generators.grid ~rng:(Rng.create 4) ~rows:5 ~cols:5 in
  let algo = flood_algorithm 6 in
  let _, report = run_async ~rng:(Rng.create 5) g algo in
  (* every algorithm message costs one ack; every pulse costs one SAFE per
     edge per direction from each node that completed the pulse *)
  Alcotest.(check bool) "acks + safes dominate" true
    (report.sync_messages >= report.alg_messages);
  Alcotest.(check bool) "pulses bounded" true (report.pulses <= 12);
  (* the α-synchronizer's §1.2 charge, measured: beyond one ack per
     algorithm message, at most one SAFE per edge per direction per pulse *)
  List.iter
    (fun (name, g) ->
      let _, r = run_async ~rng:(Rng.create 6) g (flood_algorithm 6) in
      let charge = 2 * Graph.m g * r.pulses in
      Alcotest.(check bool)
        (Printf.sprintf "%s: sync - alg = %d <= 2*m*pulses = %d" name
           (r.sync_messages - r.alg_messages) charge)
        true
        (r.sync_messages - r.alg_messages <= charge))
    [
      ("grid5x5", g);
      ("gnp50", Generators.gnp_connected ~rng:(Rng.create 7) ~n:50 ~p:0.1);
      ("tree40", Generators.random_tree ~rng:(Rng.create 8) 40);
    ]

let prop_async_equals_sync =
  QCheck2.Test.make ~name:"async BFS = sync BFS on random graphs" ~count:40
    QCheck2.Gen.(triple (int_bound 10_000) (int_range 2 50) (int_bound 1000))
    (fun (seed, n, dseed) ->
      let g = Generators.gnp_connected ~rng:(Rng.create seed) ~n ~p:0.15 in
      let algo = Kdom.Bfs_tree.algorithm g ~root:0 in
      let sync_states, _ = Runtime.run g algo in
      let async_states, _ = run_async ~rng:(Rng.create dseed) g algo in
      let a = Kdom.Bfs_tree.info_of_states g ~root:0 sync_states in
      let b = Kdom.Bfs_tree.info_of_states g ~root:0 async_states in
      a.depth = b.depth && a.parent = b.parent && a.m_known = b.m_known)

let () =
  Alcotest.run "async"
    [
      ( "alpha-synchronizer",
        [
          Alcotest.test_case "BFS states identical" `Quick test_bfs_same_states;
          Alcotest.test_case "delay regimes" `Quick test_bfs_many_delay_regimes;
          Alcotest.test_case "flood states identical" `Quick test_flood_same_states;
          Alcotest.test_case "overhead accounting" `Quick
            test_synchronizer_overhead_accounting;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_async_equals_sync ]);
    ]
