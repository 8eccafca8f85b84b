(* FastMST demo: the paper's O(sqrt(n) log* n + Diam) MST algorithm versus
   the GHS baseline and the trivial collect-everything algorithm, on a
   low-diameter graph where the new algorithm shines.

     dune exec examples/mst_demo.exe
*)

open Kdom_graph
open Kdom

let () =
  let rng = Rng.create 7 in
  let n = 600 in
  let g = Generators.gnp_connected ~rng ~n ~p:0.02 in
  let diam = Traversal.diameter g in
  Format.printf "G(n=%d, m=%d), diameter %d@." n (Graph.m g) diam;

  (* ground truth *)
  let kruskal = Mst.kruskal g in
  Format.printf "sequential MST weight: %d@." (Mst.weight kruskal);

  (* the paper's algorithm *)
  let fast = Fast_mst.run g in
  Format.printf "@.FastMST (k = ceil sqrt n = %d):@." fast.k;
  Format.printf "  fragments after FastDOM_G: %d@." (List.length fast.fragments);
  Format.printf "  sqrt(n)-dominating set size: %d@." (List.length fast.dominating);
  Format.printf "  pipeline stalls (Lemma 5.3 says 0): %d@." fast.pipeline.stalls;
  Format.printf "  rounds: %d   bound sqrt(n)log*(n)+diam ~ %.0f@." fast.rounds
    (Log_star.fast_mst_bound ~n ~diam);
  Format.printf "  correct: %b@." (Mst.same_edge_set fast.mst kruskal);
  Format.printf "  @[<v2>round breakdown:@,%a@]@." Ledger.pp fast.ledger;

  (* baselines *)
  let ghs = Ghs.run g in
  Format.printf "@.GHS baseline: %d rounds over %d phases, correct: %b@." ghs.rounds
    ghs.phases
    (Mst.same_edge_set ghs.mst kruskal);

  let trivial = Collect_all.run g in
  Format.printf "Collect-all baseline: %d rounds, %d edge descriptions at root, correct: %b@."
    trivial.rounds trivial.edges_at_root
    (Mst.same_edge_set trivial.mst kruskal);

  (* what the synchrony assumption costs in an asynchronous network: the
     message-level Pipeline stage under the alpha-synchronizer, measured *)
  let fragment_of = Array.make n (-1) in
  List.iteri
    (fun i (f : Simple_mst.fragment) -> List.iter (fun v -> fragment_of.(v) <- i) f.members)
    fast.fragments;
  let bfs, _ = Bfs_tree.run g ~root:fast.root in
  let pipeline, _ = Pipeline.algorithm g ~bfs ~fragment_of in
  let _, frep =
    Kdom_congest.Async.run_reliable ~rng ~max_words:Pipeline.max_words g pipeline
  in
  let r = frep.report in
  Format.printf
    "@.alpha-synchronizer, Pipeline stage: %d sync rounds -> %d pulses, %.0f async \
     time units; %d algorithm + %d synchronizer messages, %d retransmits@."
    fast.pipeline.upcast_stats.rounds r.pulses r.async_time r.alg_messages
    r.sync_messages frep.retransmits
