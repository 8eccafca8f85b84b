(* Differential tests: the port-indexed mailbox engine (Engine) against the
   legacy list-based simulator kept as Runtime.run_reference and the
   α-synchronizer (Async.run_reliable on a fault-free network).  The
   reference is the executable specification; the engine must reproduce it
   exactly — bit-identical final states and identical {rounds; messages;
   max_inflight} at 1, 2 and 4 domains — and the synchronizer must reach
   the same states with the same algorithm traffic, for every
   message-level algorithm in the repository, on random trees and
   connected G(n,p) graphs.  Further groups check the synchronizer across
   delay regimes and that the instrumentation sinks agree with the
   returned stats. *)

open Kdom_graph
open Kdom_congest
module S = Engine.Sink

(* ------------------------------------------------------------------ *)
(* Harness *)

let check_stats what (e : Engine.stats) (r : Engine.stats) =
  Alcotest.(check int) (what ^ ": rounds") r.rounds e.rounds;
  Alcotest.(check int) (what ^ ": messages") r.messages e.messages;
  Alcotest.(check int) (what ^ ": max_inflight") r.max_inflight e.max_inflight

(* [mk] builds a fresh algorithm instance per executor so that any mutable
   state captured by the closures (e.g. Pipeline's stall counter) cannot
   leak between executions. *)
let diff what ~max_words g mk =
  let e_states, e_stats = Runtime.run ~max_words g (mk ()) in
  let r_states, r_stats = Runtime.run_reference ~max_words g (mk ()) in
  if e_states <> r_states then Alcotest.failf "%s: final states differ" what;
  check_stats what e_stats r_stats;
  List.iter
    (fun d ->
      let what = Printf.sprintf "%s (domains=%d)" what d in
      let d_states, d_stats = Runtime.run ~max_words ~domains:d g (mk ()) in
      if d_states <> e_states then Alcotest.failf "%s: final states differ" what;
      check_stats what d_stats e_stats)
    [ 2; 4 ];
  let a_states, frep = Async.run_reliable ~rng:(Rng.create 1) ~max_words g (mk ()) in
  if a_states <> e_states then Alcotest.failf "%s: async states differ" what;
  Alcotest.(check int) (what ^ ": async algorithm traffic") e_stats.messages
    frep.report.alg_messages

let graph_families seed =
  let n = 8 + (seed mod 48) in
  [
    ("tree", Generators.random_tree ~rng:(Rng.create seed) n);
    ( "gnp",
      Generators.gnp_connected ~rng:(Rng.create (seed + 1)) ~n ~p:0.15 );
  ]

let seed_gen = QCheck2.Gen.int_bound 10_000

(* ------------------------------------------------------------------ *)
(* One property per algorithm family *)

let prop_bfs =
  QCheck2.Test.make ~name:"engine = reference: Bfs_tree" ~count:30 seed_gen
    (fun seed ->
      List.iter
        (fun (fam, g) ->
          diff ("bfs/" ^ fam) ~max_words:Kdom.Bfs_tree.max_words g (fun () ->
              Kdom.Bfs_tree.algorithm g ~root:0))
        (graph_families seed);
      true)

let prop_census =
  QCheck2.Test.make ~name:"engine = reference: Diam_dom census" ~count:30
    QCheck2.Gen.(pair seed_gen (int_range 1 4))
    (fun (seed, k) ->
      let g = Generators.random_tree ~rng:(Rng.create seed) (10 + (seed mod 50)) in
      let info, _ = Kdom.Bfs_tree.run g ~root:0 in
      (* the census stage only runs on trees deeper than k *)
      if info.height > k then
        diff "census" ~max_words:Kdom.Diam_dom.census_max_words g (fun () ->
            Kdom.Diam_dom.census_algorithm info ~k);
      true)

let prop_coloring =
  QCheck2.Test.make ~name:"engine = reference: Coloring (3-color)" ~count:30
    seed_gen (fun seed ->
      let g = Generators.random_tree ~rng:(Rng.create seed) (8 + (seed mod 60)) in
      diff "coloring" ~max_words:Kdom.Coloring.congest_max_words g (fun () ->
          Kdom.Coloring.congest_algorithm g ~root:0);
      true)

let prop_leader =
  QCheck2.Test.make ~name:"engine = reference: Leader" ~count:30 seed_gen
    (fun seed ->
      List.iter
        (fun (fam, g) ->
          diff ("leader/" ^ fam) ~max_words:Kdom.Leader.max_words g (fun () ->
              Kdom.Leader.algorithm g))
        (graph_families seed);
      true)

let prop_simple_mst =
  QCheck2.Test.make ~name:"engine = reference: Simple_mst_congest" ~count:20
    QCheck2.Gen.(pair seed_gen (int_range 1 3))
    (fun (seed, k) ->
      List.iter
        (fun (fam, g) ->
          diff ("smc/" ^ fam) ~max_words:Kdom.Simple_mst_congest.max_words g
            (fun () -> Kdom.Simple_mst_congest.algorithm g ~k))
        (graph_families seed);
      true)

let prop_pipeline =
  QCheck2.Test.make ~name:"engine = reference: Pipeline" ~count:15
    QCheck2.Gen.(pair seed_gen (int_range 1 4))
    (fun (seed, k) ->
      let g =
        Generators.gnp_connected ~rng:(Rng.create seed)
          ~n:(12 + (seed mod 40))
          ~p:0.15
      in
      let dom = Kdom.Fastdom_graph.run g ~k in
      let fragment_of = Kdom.Simple_mst.fragment_of_array g dom.forest in
      let bfs, _ = Kdom.Bfs_tree.run g ~root:0 in
      let stalls = ref [] in
      diff "pipeline" ~max_words:Kdom.Pipeline.max_words g (fun () ->
          let algo, s = Kdom.Pipeline.algorithm g ~bfs ~fragment_of in
          stalls := s :: !stalls;
          algo);
      (match !stalls with
      | [] -> Alcotest.fail "pipeline: expected instances"
      | s0 :: rest ->
          List.iter
            (fun s -> Alcotest.(check int) "pipeline: stall counters agree" !s0 !s)
            rest);
      true)

(* The two maintenance protocols, on random trees through the partition's
   cluster forest. *)
let tree_plan seed =
  let g = Generators.random_tree ~rng:(Rng.create seed) (8 + (seed mod 24)) in
  (g, Kdom.Cluster.plan_of_partition
        (Kdom.Dom_partition.partition g (Kdom.Dom_partition.run g ~k:2)))

let prop_repair =
  QCheck2.Test.make ~name:"engine = reference: Repair" ~count:8 seed_gen
    (fun seed ->
      let g, plan = tree_plan seed in
      let cfg =
        { Repair.plan; beta = 3; lease = 2; dmax = Repair.default_dmax plan; horizon = 30 }
      in
      diff "repair" ~max_words:Repair.max_words g (fun () -> Repair.algorithm g cfg);
      true)

let prop_serve =
  QCheck2.Test.make ~name:"engine = reference: Serve" ~count:8 seed_gen
    (fun seed ->
      let g, plan = tree_plan seed in
      let requests =
        Kdom.Workload.generate g plan Kdom.Workload.uniform ~seed ~requests:40 ~window:8
      in
      let dmax = Array.fold_left max 0 plan.Repair.depth in
      let retry_after = (4 * dmax) + 8 in
      let cfg =
        { Serve.plan; requests; horizon = 8 + (2 * retry_after); retry_after; retries = 1 }
      in
      diff "serve" ~max_words:Serve.max_words g (fun () -> Serve.algorithm g cfg);
      (* retry-heavy: a hotspot load against a 3-round timer, so re-sends,
         stray replies and exhausted requests are all exercised *)
      let requests =
        Kdom.Workload.generate g plan Kdom.Workload.hotspot ~seed ~requests:40 ~window:8
      in
      let retry_after = 3 and retries = 2 in
      let cfg =
        { Serve.plan; requests; horizon = 8 + ((retries + 1) * retry_after) + 40; retry_after; retries }
      in
      diff "serve/retry-heavy" ~max_words:Serve.max_words g (fun () -> Serve.algorithm g cfg);
      true)

(* ------------------------------------------------------------------ *)
(* Deterministic one-shot diffs on a larger fixed instance *)

let test_fixed_instances () =
  let g = Generators.grid ~rng:(Rng.create 7) ~rows:9 ~cols:9 in
  diff "grid/bfs" ~max_words:Kdom.Bfs_tree.max_words g (fun () ->
      Kdom.Bfs_tree.algorithm g ~root:0);
  diff "grid/leader" ~max_words:Kdom.Leader.max_words g (fun () ->
      Kdom.Leader.algorithm g);
  diff "grid/smc" ~max_words:Kdom.Simple_mst_congest.max_words g (fun () ->
      Kdom.Simple_mst_congest.algorithm g ~k:2);
  let t = Generators.binary_tree ~rng:(Rng.create 8) 127 in
  diff "bintree/coloring" ~max_words:Kdom.Coloring.congest_max_words t
    (fun () -> Kdom.Coloring.congest_algorithm t ~root:0);
  let info, _ = Kdom.Bfs_tree.run t ~root:0 in
  diff "bintree/census" ~max_words:Kdom.Diam_dom.census_max_words t (fun () ->
      Kdom.Diam_dom.census_algorithm info ~k:2)

(* A node halted at init is never stepped, by any executor: on a path of
   4 with node 0 halted (state -1), every other node counts two steps. *)
let test_init_halted () =
  let g = Generators.path ~rng:(Rng.create 12) 4 in
  let mk () =
    {
      Engine.einit = (fun _ v -> if v = 0 then -1 else 0);
      estep = (fun _ ~round:_ ~node:_ st _ _ -> st + 1);
      ehalted = (fun st -> st < 0 || st >= 2);
      ewake = Engine.always;
    }
  in
  diff "init-halted" ~max_words:1 g mk;
  Alcotest.(check (array int)) "init-halted: final states" [| -1; 2; 2; 2 |]
    (fst (Runtime.run g (mk ())))

(* A never-halting node program whose step only sends what [send] emits. *)
let sender send () =
  {
    Engine.einit = (fun _ v -> v);
    estep =
      (fun _ ~round:_ ~node st _ em ->
        send ~node em;
        st);
    ehalted = (fun _ -> false);
    ewake = Engine.always;
  }

(* node 1 sends to node 0, halted from the start *)
let halted_receiver () =
  {
    (sender (fun ~node em -> if node = 1 then Engine.Emit.frame1 em ~dst:0 7) ()) with
    Engine.ehalted = (fun v -> v = 0);
  }

(* Violations must be raised identically by both backends: same exception,
   same message, same (first-in-id-order) offending node. *)
let test_violations_agree () =
  let g = Generators.path ~rng:(Rng.create 11) 6 in
  let outcome run algo =
    match run g algo with
    | _ -> Ok ()
    | exception Engine.Congestion_violation m -> Error m
  in
  let cases =
    [
      ( "non-neighbor",
        sender (fun ~node em -> if node = 2 then Engine.Emit.frame1 em ~dst:5 0) );
      ( "duplicate",
        sender (fun ~node em ->
            if node = 3 then begin
              Engine.Emit.frame1 em ~dst:4 0;
              Engine.Emit.frame1 em ~dst:4 1
            end) );
      ( "width",
        sender (fun ~node em ->
            if node = 2 then
              Engine.Emit.send em ~dst:3 (fun w ->
                  for i = 1 to 5 do
                    Codec.put w i
                  done)) );
      ("halted receiver", halted_receiver);
    ]
  in
  List.iter
    (fun (name, mk) ->
      let e = outcome (fun g a -> Runtime.run g a) (mk ()) in
      let r = outcome (fun g a -> Runtime.run_reference g a) (mk ()) in
      match (e, r) with
      | Error me, Error mr ->
          Alcotest.(check string) (name ^ ": same violation") mr me
      | _ -> Alcotest.failf "%s: expected violations from both backends" name)
    cases

(* ------------------------------------------------------------------ *)
(* Scheduler differentials: the sparse event-driven scheduler against the
   reference, round for round.  With every hint [Always] (the dense
   schedule, [{ a with ewake = Engine.always }]) the engine's per-round
   sink records must be bit-identical to [run_reference]'s 0-projection
   (skipped = woken = 0, stepped = live).  With the algorithm's own hints
   the per-round traffic (sent / delivered / words / receivers) plus
   stepped+skipped = reference stepped must still agree. *)

type flood = { best : int; left : int }

let flood_algorithm ?(wake = Engine.always) g rounds : flood Engine.ealgorithm =
  {
    einit = (fun _ v -> { best = v; left = rounds });
    ehalted = (fun st -> st.left = 0);
    estep =
      (fun _ ~round:_ ~node st inbox em ->
        let best = ref st.best in
        for i = 0 to Engine.Inbox.length inbox - 1 do
          best := max !best (Codec.get (Engine.Inbox.read inbox i))
        done;
        let st = { best = !best; left = st.left - 1 } in
        if st.left > 0 then
          Array.iter (fun (u, _) -> Engine.Emit.frame1 em ~dst:u st.best) (Graph.neighbors g node);
        st);
    ewake = wake;
  }

(* a token walking a path: the canonical O(1)-frontier kernel *)
let token_algorithm ?(wake = Engine.always) g : bool Engine.ealgorithm =
  let n = Graph.n g in
  {
    einit = (fun _ _ -> false);
    ehalted = (fun st -> st);
    estep =
      (fun _ ~round ~node _ inbox em ->
        if node = 0 && round = 0 then begin
          if n > 1 then Engine.Emit.frame1 em ~dst:1 1;
          true
        end
        else if not (Engine.Inbox.is_empty inbox) then begin
          if node + 1 < n then Engine.Emit.frame1 em ~dst:(node + 1) 1;
          true
        end
        else false);
    ewake = wake;
  }

let dense_round_diff what ~max_words g mk =
  let es, er = Engine.Sink.counters () in
  let e_states, e_stats =
    Runtime.run ~max_words ~sink:es g { (mk ()) with Engine.ewake = Engine.always }
  in
  let rs, rr = Engine.Sink.counters () in
  let r_states, r_stats = Runtime.run_reference ~max_words ~sink:rs g (mk ()) in
  if e_states <> r_states then Alcotest.failf "%s: final states differ" what;
  check_stats what e_stats r_stats;
  let e = er () and r = rr () in
  Alcotest.(check int) (what ^ ": round record count") (List.length r)
    (List.length e);
  List.iter2
    (fun (ei : Engine.Sink.round_info) (ri : Engine.Sink.round_info) ->
      if ei <> ri then Alcotest.failf "%s: round %d records differ" what ri.round)
    e r

let sparse_round_diff what ~max_words g mk =
  let es, er = Engine.Sink.counters () in
  let e_states, e_stats = Runtime.run ~max_words ~sink:es g (mk ()) in
  let rs, rr = Engine.Sink.counters () in
  let r_states, r_stats = Runtime.run_reference ~max_words ~sink:rs g (mk ()) in
  if e_states <> r_states then Alcotest.failf "%s: final states differ" what;
  check_stats what e_stats r_stats;
  List.iter2
    (fun (ei : Engine.Sink.round_info) (ri : Engine.Sink.round_info) ->
      let ctx = Printf.sprintf "%s round %d: " what ri.round in
      let e = Array.get ei.counts and r = Array.get ri.counts in
      Alcotest.(check int) (ctx ^ "stepped+skipped = reference stepped")
        (r S.stepped) (e S.stepped + e S.skipped);
      List.iter
        (fun c -> Alcotest.(check int) (ctx ^ S.key c) (r c) (e c))
        [ S.sent; S.delivered; S.words; S.receivers ])
    (er ()) (rr ())

let prop_dense_bit_identical =
  QCheck2.Test.make
    ~name:"dense engine = reference round-for-round"
    ~count:20 seed_gen
    (fun seed ->
      List.iter
        (fun (fam, g) ->
          dense_round_diff ("flood/" ^ fam) ~max_words:4 g (fun () ->
              flood_algorithm g (2 + (seed mod 4)));
          dense_round_diff ("bfs/" ^ fam) ~max_words:Kdom.Bfs_tree.max_words
            g (fun () -> Kdom.Bfs_tree.algorithm g ~root:0);
          dense_round_diff ("smc/" ^ fam)
            ~max_words:Kdom.Simple_mst_congest.max_words g (fun () ->
              Kdom.Simple_mst_congest.algorithm g ~k:2))
        (graph_families seed);
      let p = Generators.path ~rng:(Rng.create seed) (2 + (seed mod 30)) in
      dense_round_diff "token/path" ~max_words:4 p (fun () -> token_algorithm p);
      true)

let prop_sparse_round_consistency =
  QCheck2.Test.make
    ~name:"sparse scheduler: per-round traffic matches the reference"
    ~count:20 seed_gen
    (fun seed ->
      List.iter
        (fun (fam, g) ->
          sparse_round_diff ("bfs/" ^ fam) ~max_words:Kdom.Bfs_tree.max_words g
            (fun () -> Kdom.Bfs_tree.algorithm g ~root:0);
          sparse_round_diff ("smc/" ^ fam)
            ~max_words:Kdom.Simple_mst_congest.max_words g (fun () ->
              Kdom.Simple_mst_congest.algorithm g ~k:2))
        (graph_families seed);
      let t = Generators.random_tree ~rng:(Rng.create seed) (10 + (seed mod 40)) in
      let info, _ = Kdom.Bfs_tree.run t ~root:0 in
      if info.height > 2 then
        sparse_round_diff "census/tree" ~max_words:Kdom.Diam_dom.census_max_words
          t (fun () -> Kdom.Diam_dom.census_algorithm info ~k:2);
      let p = Generators.path ~rng:(Rng.create seed) (2 + (seed mod 30)) in
      sparse_round_diff "token/path" ~max_words:4 p (fun () ->
          token_algorithm ~wake:(fun _ -> Engine.OnMessage) p);
      true)

(* ------------------------------------------------------------------ *)
(* Sharded execution: [run ~domains:d] for d in {2, 4} must be
   bit-identical to the one-shard run — same final states, same stats,
   same sink round records, and the same on_message event stream in the
   same order — and agree with [run_reference] on states and stats, so
   every domain count is pinned to the independent list-based simulator,
   not only to another configuration of the same round loop. *)

let domain_counts = [ 2; 4 ]

let record_sink () =
  let rounds = ref [] in
  let msgs = ref [] in
  ( {
      Engine.Sink.on_message =
        (fun ~round ~src ~dst ~words ->
          msgs := (round, src, dst, words) :: !msgs);
      on_round = (fun ri -> rounds := ri :: !rounds);
      on_finish = ignore;
    },
    fun () -> (List.rev !rounds, List.rev !msgs) )

(* [run sink d] executes on [d] domains; [reference ()] is the same
   algorithm under [run_reference]. *)
let sharded_check what ~domains ~reference run =
  let s1, r1 = record_sink () in
  let b_states, b_stats = run s1 1 in
  let s2, r2 = record_sink () in
  let d_states, d_stats = run s2 domains in
  let what = Printf.sprintf "%s (domains=%d)" what domains in
  let r_states, r_stats = reference () in
  if d_states <> r_states then
    Alcotest.failf "%s: final states differ from the reference" what;
  check_stats (what ^ " vs reference") d_stats r_stats;
  if d_states <> b_states then
    Alcotest.failf "%s: final states differ from domains=1" what;
  check_stats (what ^ " vs domains=1") d_stats b_stats;
  let rounds1, msgs1 = r1 () in
  let rounds2, msgs2 = r2 () in
  Alcotest.(check int) (what ^ ": round record count") (List.length rounds1)
    (List.length rounds2);
  List.iter2
    (fun (bi : Engine.Sink.round_info) (di : Engine.Sink.round_info) ->
      if bi <> di then
        Alcotest.failf "%s: round %d records differ" what bi.round)
    rounds1 rounds2;
  if msgs1 <> msgs2 then
    Alcotest.failf "%s: on_message event streams differ" what

let sharded_diff what ?partition ~domains ~max_words g mk =
  sharded_check what ~domains
    ~reference:(fun () -> Runtime.run_reference ~max_words g (mk ()))
    (fun sink d ->
      let partition = if d = 1 then None else partition in
      Runtime.run ~max_words ~sink ~domains:d ?partition g (mk ()))

let prop_sharded_bit_identical =
  QCheck2.Test.make
    ~name:"d in {2,4} = d=1 = reference" ~count:12
    seed_gen
    (fun seed ->
      List.iter
        (fun (fam, g) ->
          List.iter
            (fun domains ->
              sharded_diff ("bfs/" ^ fam) ~domains
                ~max_words:Kdom.Bfs_tree.max_words g (fun () ->
                  Kdom.Bfs_tree.algorithm g ~root:0);
              sharded_diff ("leader/" ^ fam) ~domains
                ~max_words:Kdom.Leader.max_words g (fun () ->
                  Kdom.Leader.algorithm g);
              sharded_diff ("smc/" ^ fam) ~domains
                ~max_words:Kdom.Simple_mst_congest.max_words g (fun () ->
                  Kdom.Simple_mst_congest.algorithm g ~k:2))
            domain_counts;
          (* a degree-balanced (non-contiguous) partition must behave the
             same; 3 shards so cross-shard frames are guaranteed *)
          let partition = Generators.shard_partition g ~shards:3 in
          sharded_diff ("bfs-lpt/" ^ fam) ~partition ~domains:3
            ~max_words:Kdom.Bfs_tree.max_words g (fun () ->
              Kdom.Bfs_tree.algorithm g ~root:0))
        (graph_families seed);
      (* sparse-frontier kernels: the sharded scheduler must reproduce the
         event-driven path too *)
      let p = Generators.path ~rng:(Rng.create seed) (2 + (seed mod 30)) in
      List.iter
        (fun domains ->
          sharded_diff "token/path" ~domains ~max_words:4 p (fun () ->
              token_algorithm ~wake:(fun _ -> Engine.OnMessage) p);
          sharded_diff "flood/path" ~domains ~max_words:4 p (fun () ->
              flood_algorithm ~wake:(fun _ -> Engine.Next) p
                (2 + (seed mod 4))))
        domain_counts;
      true)

(* ------------------------------------------------------------------ *)
(* Mixed hints under churn: a node program whose hint cycles Always ->
   At k -> OnMessage -> Next -> Always while nodes halt, arrive, crash,
   depart and lose an edge, so the round loop merges its Always list with
   a frontier of timers and receivers in every round, and its live count
   moves both ways.

   Termination needs every node stepped at its halting round [hend.(v)]
   even when it sleeps on [OnMessage]: the test picks a dominating set of
   pacers, nodes that stay [Always] to the end and send to each neighbour
   every third round and in the round before the neighbour's halting
   round.  Churn never touches a pacer or a pacer's outgoing edge, and
   nobody sends to a node at or after its halting round, so no halted
   node ever receives.  Steps are the identity on an empty inbox wherever
   the hint lets the engine skip them. *)

type mixed = { id : int; best : int; phase : int; due : int; halted : bool }

let mixed_algorithm g ~pacer ~hend : mixed Engine.ealgorithm =
  let send_best em ~round ~node best keep =
    Array.iter
      (fun (u, _) ->
        if round + 1 <= hend.(u) && keep u then Engine.Emit.frame1 em ~dst:u best)
      (Graph.neighbors g node)
  in
  {
    einit = (fun _ v -> { id = v; best = v; phase = 0; due = 0; halted = false });
    ehalted = (fun st -> st.halted);
    estep =
      (fun _ ~round ~node st inbox em ->
        let len = Engine.Inbox.length inbox in
        let best = ref st.best in
        for i = 0 to len - 1 do
          best := max !best (Codec.get (Engine.Inbox.read inbox i))
        done;
        let best = !best in
        let all _ = true in
        if round >= hend.(node) then { st with best; halted = true }
        else if pacer.(node) then begin
          send_best em ~round ~node best (fun u ->
              round mod 3 = 0 || round + 1 = hend.(u));
          { st with best }
        end
        else
          match st.phase with
          | 0 ->
            send_best em ~round ~node best all;
            if round >= 2 && (round + node) mod 3 = 2 then
              { st with best; phase = 1; due = round + 2 + ((round + node) mod 3) }
            else { st with best }
          | 1 ->
            if round >= st.due then begin
              send_best em ~round ~node best all;
              { st with best; phase = 2 }
            end
            else if len = 0 then st
            else { st with best }
          | 2 -> if len = 0 then st else { st with best; phase = 3 }
          | _ ->
            send_best em ~round ~node best all;
            { st with best; phase = 0 });
    ewake =
      (fun st ->
        if pacer.(st.id) then Engine.Always
        else
          match st.phase with
          | 0 -> Engine.Always
          | 1 -> Engine.At st.due
          | 2 -> Engine.OnMessage
          | _ -> Engine.Next);
  }

(* Pacers: a greedy dominating set that never picks the arriving node
   [avoid]; every other node has a pacer neighbour. *)
let pacers g ~avoid =
  let n = Graph.n g in
  let pacer = Array.make n false and covered = Array.make n false in
  let pick v =
    pacer.(v) <- true;
    covered.(v) <- true;
    Array.iter (fun (u, _) -> covered.(u) <- true) (Graph.neighbors g v)
  in
  for v = 0 to n - 1 do
    if v <> avoid && not covered.(v) then pick v
  done;
  if not covered.(avoid) then pick (fst (Graph.neighbors g avoid).(0));
  pacer

let prop_mixed_hints_churn =
  QCheck2.Test.make ~name:"mixed hints under churn: d in {1,2,4} = reference"
    ~count:20 seed_gen (fun seed ->
      List.iter
        (fun (fam, g) ->
          let n = Graph.n g in
          (* a mid-range arrival lands out of order in its Always list *)
          let arrival = n / 2 in
          let pacer = pacers g ~avoid:arrival in
          let last = 16 + (seed mod 5) in
          let hend =
            Array.init n (fun v ->
                if (not pacer.(v)) && v mod 4 = 1 then 6 + (v mod 5) else last)
          in
          let others =
            List.filter
              (fun v -> v <> arrival && not pacer.(v))
              (List.init n Fun.id)
          in
          let first = 2 + (seed mod 2) in
          let node_events =
            match others with
            | c :: d :: _ ->
              [
                Engine.Churn.Crash { node = c; at = first + 1 };
                Engine.Churn.Depart { node = d; at = first + 5 };
              ]
            | _ -> []
          in
          let edge_events =
            (* a non-pacer's edge into a pacer: pacers need no mail *)
            match
              List.find_opt
                (fun v -> Array.exists (fun (u, _) -> pacer.(u)) (Graph.neighbors g v))
                others
            with
            | Some v ->
              let p =
                fst
                  (List.find
                     (fun (u, _) -> pacer.(u))
                     (Array.to_list (Graph.neighbors g v)))
              in
              [
                Engine.Churn.Edge_down { src = v; dst = p; at = first };
                Engine.Churn.Edge_up { src = v; dst = p; at = first + 3 };
              ]
            | None -> []
          in
          let events =
            (Engine.Churn.Arrive { node = arrival; at = first } :: node_events)
            @ edge_events
          in
          let e = Engine.create g in
          let churn = Engine.Churn.compile e events in
          let mk () = mixed_algorithm g ~pacer ~hend in
          let what = Printf.sprintf "mixed/%s seed %d" fam seed in
          let rs, rr = record_sink () in
          let r_states, r_stats =
            Runtime.run_reference ~max_words:2 ~sink:rs ~churn g (mk ())
          in
          let r, r_msgs = rr () in
          let run d =
            let es, er = record_sink () in
            let states, stats =
              Engine.exec_emit ~max_words:2 ~sink:es ~churn ~domains:d e (mk ())
            in
            (states, stats, er ())
          in
          let b_states, b_stats, (b, _) = run 1 in
          List.iter
            (fun d ->
              let what = Printf.sprintf "%s (domains=%d)" what d in
              let states, stats, (recs, msgs) = run d in
              if states <> r_states then
                Alcotest.failf "%s: final states differ from the reference" what;
              check_stats what stats r_stats;
              if states <> b_states then
                Alcotest.failf "%s: final states differ from domains=1" what;
              check_stats what stats b_stats;
              if recs <> b then Alcotest.failf "%s: records differ from domains=1" what;
              if msgs <> r_msgs then
                Alcotest.failf "%s: on_message stream differs from the reference" what;
              Alcotest.(check int) (what ^ ": round record count") (List.length r)
                (List.length recs);
              List.iter2
                (fun (ei : S.round_info) (ri : S.round_info) ->
                  let ctx = Printf.sprintf "%s round %d: " what ri.round in
                  let e = Array.get ei.counts and r = Array.get ri.counts in
                  Alcotest.(check int) (ctx ^ "stepped+skipped = reference stepped")
                    (r S.stepped) (e S.stepped + e S.skipped);
                  for c = 0 to S.n_counters - 1 do
                    if c <> S.stepped && c <> S.skipped && c <> S.woken then
                      Alcotest.(check int) (ctx ^ S.key c) (r c) (e c)
                  done)
                recs r)
            [ 1; 2; 4 ];
          if List.length node_events + List.length edge_events < 4 then
            Alcotest.failf "%s: churn schedule incomplete" what)
        [
          ( "tree",
            Generators.random_tree ~rng:(Rng.create seed) (12 + (seed mod 36)) );
          ( "gnp",
            Generators.gnp_connected ~rng:(Rng.create (seed + 1))
              ~n:(12 + (seed mod 36)) ~p:0.15 );
        ];
      true)

(* Violations must be raised identically at every domain count, including
   which of several concurrent offenders wins (the reference's
   first-in-id-order one). *)
let test_sharded_violations_agree () =
  let g = Generators.path ~rng:(Rng.create 11) 6 in
  let result run algo =
    match run algo with
    | _ -> Ok ()
    | exception Engine.Congestion_violation m -> Error m
  in
  let outcome domains = result (Runtime.run ~domains g) in
  let cases =
    [
      ( "non-neighbor",
        sender (fun ~node em -> if node = 2 then Engine.Emit.frame1 em ~dst:5 0) );
      ( "concurrent duplicates",
        (* two offenders in different shards: node 1's must win *)
        sender (fun ~node em ->
            if node = 1 || node = 4 then begin
              Engine.Emit.frame1 em ~dst:(node + 1) 0;
              Engine.Emit.frame1 em ~dst:(node + 1) 1
            end) );
      ("halted receiver", halted_receiver);
    ]
  in
  List.iter
    (fun (name, mk) ->
      let base = result (Runtime.run_reference g) (mk ()) in
      List.iter
        (fun domains ->
          let got = outcome domains (mk ()) in
          match (base, got) with
          | Error mb, Error mg ->
              Alcotest.(check string)
                (Printf.sprintf "%s: same violation at domains=%d" name domains)
                mb mg
          | _ ->
              Alcotest.failf "%s: expected violations at domains=%d" name
                domains)
        [ 1; 2; 4 ])
    cases

(* ------------------------------------------------------------------ *)
(* Engine reuse after an aborted run.  The engine owns its frame arenas,
   receive counts and shard buffers across runs, so a run that aborts
   mid-round leaves frames in flight in both buffer directions, pending
   timers, a half-stepped frontier and possibly an open frame on an
   emitter.  The next run on the same engine must see none of it: its
   states, stats and sink counters equal a run on a fresh engine, at every
   domain count. *)

(* every node sends to every neighbour every round, with [Next] hints so
   the timer wheel holds entries when the run aborts; at round 3 the
   culprit sends to its first neighbour twice *)
let abort_duplicate g : int Engine.ealgorithm =
  let culprit = Graph.n g / 2 in
  {
    Engine.einit = (fun _ v -> v);
    estep =
      (fun g ~round ~node st _ em ->
        let nbrs = Graph.neighbors g node in
        Array.iter (fun (u, _) -> Engine.Emit.frame2 em ~dst:u round node) nbrs;
        if round = 3 && node = culprit then
          Engine.Emit.frame2 em ~dst:(fst nbrs.(0)) round node;
        st + 1);
    ehalted = (fun _ -> false);
    ewake = (fun _ -> Engine.Next);
  }

(* leaves a frame open on the emitter: the over-budget put raises *)
let abort_open_frame g : int Engine.ealgorithm =
  let culprit = Graph.n g / 2 in
  {
    Engine.einit = (fun _ v -> v);
    estep =
      (fun g ~round ~node st _ em ->
        Array.iter
          (fun (u, _) ->
            let w = Engine.Emit.start em ~dst:u in
            let words = if round = 3 && node = culprit then 9 else 2 in
            for i = 1 to words do
              Codec.put w i
            done;
            Engine.Emit.commit em)
          (Graph.neighbors g node);
        st + 1);
    ehalted = (fun _ -> false);
    ewake = (fun _ -> Engine.Next);
  }

let test_reuse_after_abort () =
  let g = Generators.gnp_connected ~rng:(Rng.create 51) ~n:40 ~p:0.12 in
  let aborts =
    [
      ( "duplicate send",
        fun e d -> ignore (Engine.exec_emit ~max_words:4 ~domains:d e (abort_duplicate g)) );
      ( "open frame",
        fun e d ->
          ignore (Engine.exec_emit ~max_words:4 ~domains:d e (abort_open_frame g)) );
      ( "round limit",
        fun e d ->
          ignore
            (Engine.exec_emit ~max_words:4 ~max_rounds:2 ~domains:d e (abort_duplicate g))
      );
    ]
  in
  let same what run e =
    let fresh_states, fresh_stats, fresh_rounds = run (Engine.create g) in
    let states, stats, rounds = run e in
    if states <> fresh_states then Alcotest.failf "%s: final states differ" what;
    check_stats what stats fresh_stats;
    if rounds <> fresh_rounds then Alcotest.failf "%s: sink counters differ" what
  in
  let counted exec =
    let sink, rounds = Engine.Sink.counters () in
    let states, stats = exec sink in
    (states, stats, rounds ())
  in
  List.iter
    (fun d ->
      List.iter
        (fun (aborter, abort) ->
          let reused clean =
            let e = Engine.create g in
            (match abort e d with
            | () -> Alcotest.failf "%s at domains=%d: expected an abort" aborter d
            | exception (Engine.Congestion_violation _ | Engine.Round_limit_exceeded _)
              -> ());
            (Printf.sprintf "%s then %s (domains=%d)" aborter clean d, e)
          in
          let what, e = reused "leader" in
          same what
            (fun e ->
              counted (fun sink ->
                  Engine.exec_emit ~max_words:Kdom.Leader.max_words ~sink ~domains:d e
                    (Kdom.Leader.algorithm g)))
            e;
          let what, e = reused "bfs" in
          same what
            (fun e ->
              counted (fun sink ->
                  Engine.exec_emit ~max_words:Kdom.Bfs_tree.max_words ~sink ~domains:d e
                    (Kdom.Bfs_tree.algorithm g ~root:0)))
            e;
          let what, e = reused "sparse flood" in
          same what
            (fun e ->
              counted (fun sink ->
                  Engine.exec_emit ~max_words:4 ~sink ~domains:d e
                    (flood_algorithm ~wake:(fun _ -> Engine.Next) g 5)))
            e)
        aborts)
    [ 1; 2; 4 ]

(* Satellite: Sink.counters is merge-safe — teeing two counter sinks makes
   both observe exactly what a single sink observes, and combine_round_info
   is an associative merge with empty_round_info as identity. *)
let test_counters_merge_safe () =
  let g = Generators.gnp_connected ~rng:(Rng.create 41) ~n:40 ~p:0.12 in
  let c0, r0 = Engine.Sink.counters () in
  let _ = Runtime.run ~sink:c0 g (Kdom.Leader.algorithm g) in
  let c1, r1 = Engine.Sink.counters () in
  let c2, r2 = Engine.Sink.counters () in
  let _ = Runtime.run ~sink:(Engine.Sink.tee c1 c2) g (Kdom.Leader.algorithm g) in
  let single = r0 () in
  if r1 () <> single then Alcotest.fail "tee left != single";
  if r2 () <> single then Alcotest.fail "tee right != single";
  (* combine: identity and associativity on real records *)
  List.iter
    (fun (ri : Engine.Sink.round_info) ->
      let open Engine.Sink in
      if combine_round_info (empty_round_info ri.round) ri <> ri then
        Alcotest.fail "empty_round_info is not a left identity";
      let a = ri and b = empty_round_info ri.round and c = ri in
      if
        combine_round_info (combine_round_info a b) c
        <> combine_round_info a (combine_round_info b c)
      then Alcotest.fail "combine_round_info not associative")
    single;
  (* splitting every counter of a round record across two halves and
     combining them restores the record *)
  match single with
  | [] -> Alcotest.fail "expected at least one round"
  | (ri : Engine.Sink.round_info) :: _ ->
    let half = { ri with counts = Array.map (fun v -> v / 2) ri.counts }
    and rest = { ri with counts = Array.map (fun v -> v - (v / 2)) ri.counts } in
    if Engine.Sink.combine_round_info half rest <> ri then
      Alcotest.fail "split halves do not combine back to the record"

(* ------------------------------------------------------------------ *)
(* Async vs Engine across delay regimes *)

let test_async_matches_engine () =
  let g = Generators.gnp_connected ~rng:(Rng.create 21) ~n:45 ~p:0.12 in
  let sync_states, sync_stats =
    Runtime.run ~max_words:Kdom.Leader.max_words g (Kdom.Leader.algorithm g)
  in
  List.iter
    (fun (seed, max_delay) ->
      let async_states, frep =
        Async.run_reliable ~rng:(Rng.create seed) ~max_delay
          ~max_words:Kdom.Leader.max_words g (Kdom.Leader.algorithm g)
      in
      let report = frep.report in
      let what = Printf.sprintf "leader async d=%.2f" max_delay in
      if async_states <> sync_states then
        Alcotest.failf "%s: states differ from engine" what;
      Alcotest.(check int)
        (what ^ ": algorithm traffic")
        sync_stats.messages report.alg_messages)
    [ (1, 0.05); (2, 1.0); (3, 10.0) ]

let test_async_bfs_matches_engine () =
  let g = Generators.random_tree ~rng:(Rng.create 22) 60 in
  let sync_states, _ =
    Runtime.run ~max_words:Kdom.Bfs_tree.max_words g
      (Kdom.Bfs_tree.algorithm g ~root:0)
  in
  List.iter
    (fun (seed, max_delay) ->
      let async_states, _ =
        Async.run_reliable ~rng:(Rng.create seed) ~max_delay
          ~max_words:Kdom.Bfs_tree.max_words g
          (Kdom.Bfs_tree.algorithm g ~root:0)
      in
      if async_states <> sync_states then
        Alcotest.failf "bfs async d=%.2f: states differ from engine" max_delay)
    [ (4, 0.05); (5, 1.0); (6, 10.0) ]

(* ------------------------------------------------------------------ *)
(* Sinks must agree with the returned stats *)

let test_sink_consistency () =
  let g = Generators.gnp_connected ~rng:(Rng.create 31) ~n:80 ~p:0.08 in
  let counters, rounds_info = Engine.Sink.counters () in
  let activity, sent, received = Engine.Sink.activity ~n:(Graph.n g) in
  let sink = Engine.Sink.tee counters activity in
  let _, stats =
    Runtime.run ~max_words:Kdom.Leader.max_words ~sink g (Kdom.Leader.algorithm g)
  in
  let infos = rounds_info () in
  let delivered =
    List.fold_left
      (fun a (i : Engine.Sink.round_info) -> a + i.counts.(S.delivered))
      0 infos
  in
  Alcotest.(check int) "counters: delivered sums to stats.messages"
    stats.messages delivered;
  Alcotest.(check int) "counters: one record per round" stats.rounds
    (List.length infos);
  let max_inflight =
    List.fold_left
      (fun a (i : Engine.Sink.round_info) -> max a i.counts.(S.delivered))
      0 infos
  in
  Alcotest.(check int) "counters: max delivered = stats.max_inflight"
    stats.max_inflight max_inflight;
  Alcotest.(check int) "activity: sent sums to stats.messages" stats.messages
    (Array.fold_left ( + ) 0 sent);
  Alcotest.(check int) "activity: received sums to stats.messages"
    stats.messages
    (Array.fold_left ( + ) 0 received)

let () =
  Alcotest.run "engine_diff"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bfs;
            prop_census;
            prop_coloring;
            prop_leader;
            prop_simple_mst;
            prop_pipeline;
            prop_repair;
            prop_serve;
          ] );
      ( "scheduler",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_dense_bit_identical;
            prop_sparse_round_consistency;
            prop_mixed_hints_churn;
          ] );
      ( "deterministic",
        [
          Alcotest.test_case "fixed instances" `Quick test_fixed_instances;
          Alcotest.test_case "violations agree" `Quick test_violations_agree;
          Alcotest.test_case "init-halted node never steps" `Quick test_init_halted;
        ] );
      ( "sharded",
        QCheck_alcotest.to_alcotest prop_sharded_bit_identical
        :: [
             Alcotest.test_case "violations agree across domains" `Quick
               test_sharded_violations_agree;
             Alcotest.test_case "counters merge-safe" `Quick
               test_counters_merge_safe;
           ] );
      ( "reuse",
        [
          Alcotest.test_case "engine reuse after an aborted run" `Quick
            test_reuse_after_abort;
        ] );
      ( "async",
        [
          Alcotest.test_case "leader across delay regimes" `Quick
            test_async_matches_engine;
          Alcotest.test_case "bfs across delay regimes" `Quick
            test_async_bfs_matches_engine;
        ] );
      ( "sinks",
        [ Alcotest.test_case "counters/activity vs stats" `Quick test_sink_consistency ] );
    ]
