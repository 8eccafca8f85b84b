(* Asynchrony and self-containedness: elect a leader, build the BFS tree
   from its wave, and show that the same node program produces identical
   results on the synchronous runtime and under the alpha-synchronizer with
   random link delays (the §1.2 claim).

     dune exec examples/async_demo.exe
*)

open Kdom_graph
open Kdom

let () =
  let rng = Rng.create 31 in
  let n = 200 in
  let g = Generators.gnp_connected ~rng ~n ~p:0.04 in
  Format.printf "G(n=%d, m=%d), diameter %d@." n (Graph.m g) (Traversal.diameter g);

  (* 1. Leader election: max-key BFS waves with echoes, O(Diam) rounds. *)
  let elected = Leader.elect g in
  Format.printf "@.leader elected: node %d in %d rounds (%d messages)@." elected.leader
    elected.stats.rounds elected.stats.messages;

  (* 2. Fully self-contained FastMST seeded by the election. *)
  let mst = Fast_mst.run_elected g in
  Format.printf "self-contained FastMST: %d rounds, correct: %b@." mst.rounds
    (Mst.same_edge_set mst.mst (Mst.kruskal g));
  Format.printf "@[<v2>round breakdown:@,%a@]@." Ledger.pp mst.ledger;

  (* 3. The synchrony assumption is inessential: run the BFS node program
     under the alpha-synchronizer with three delay regimes. *)
  let algo = Bfs_tree.algorithm g ~root:elected.leader in
  let sync_states, sync_stats = Kdom_congest.Runtime.run g algo in
  let sync_info = Bfs_tree.info_of_states g ~root:elected.leader sync_states in
  Format.printf "@.synchronous BFS: %d rounds, %d messages, height %d@."
    sync_stats.rounds sync_stats.messages sync_info.height;
  List.iter
    (fun max_delay ->
      let states, frep = Kdom_congest.Async.run_reliable ~rng ~max_delay g algo in
      let report = frep.report in
      let info = Bfs_tree.info_of_states g ~root:elected.leader states in
      Format.printf
        "async (delays <= %4.1f): time %7.1f, %d pulses, identical result: %b, \
         synchronizer traffic %d@."
        max_delay report.async_time report.pulses
        (info.depth = sync_info.depth && info.parent = sync_info.parent)
        report.sync_messages)
    [ 0.5; 1.0; 10.0 ];

  (* 4. The nested routing hierarchy on the same graph. *)
  let h = Kdom_apps.Hierarchy.build g ~ks:[ 2; 4 ] in
  let report = Kdom_apps.Hierarchy.evaluate ~rng h ~pairs:300 in
  Format.printf
    "@.two-level routing hierarchy: %.1f entries/node (flat tables: %d), avg stretch %.2f@."
    report.avg_table n report.avg_stretch
