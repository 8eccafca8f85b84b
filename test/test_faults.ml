(* Fault-matrix tests: every message-level algorithm in the repository,
   executed by Async.run_reliable under randomized drop/duplication/
   reordering/slowdown regimes (and crash-recovery schedules), must reach
   quiescence with final states bit-identical to the synchronous Runtime.run
   — the α-synchronizer argument of §1.2 extended to lossy links by the
   sequence-numbered ack/retransmit layer.  Decoded outputs are additionally
   validated against the centralized Oracle, so a bug that breaks both
   executions identically is still caught.  A last group pins down the link
   layer itself: zero retransmissions on a fault-free network, the
   documented (0, max_delay] delay sampler, and Delivery_failed on a
   permanently severed link. *)

open Kdom_graph
open Kdom_congest

(* One algorithm under test, from the shared battery: name, word budget,
   a fresh instance per backend and an oracle over the decoded final
   states.  [k] matters to census, smc and pipeline only. *)
let case ?(k = 1) name g = Option.get (Kdom.Battery.case g ~k name)

(* ------------------------------------------------------------------ *)
(* Harness *)

let check_case ?(what = "") ~faults ~max_delay ~rng_seed g
    (Chaos.Case (name, max_words, mk, oracle)) =
  let what = name ^ what in
  let sync_states, _ = Runtime.run ~max_words g (mk ()) in
  let states, frep =
    Async.run_reliable ~rng:(Rng.create rng_seed) ~faults ~max_delay ~max_words
      g (mk ())
  in
  if states <> sync_states then
    Alcotest.failf "%s: faulty states differ from the synchronous run" what;
  oracle states;
  frep

(* A noticeable wire-corruption plane: at ~2e-3/word on these small
   graphs most sweeps see at least a few garbled frames. *)
let corrupting seed =
  Engine.Corrupt.make ~flip:2e-3 ~burst:2 ~truncate:1e-3 ~seed ()

let regimes =
  [
    ("/drop.2+dup.1", fun seed -> Faults.lossy ~drop:0.2 ~duplicate:0.1 ~seed ());
    ( "/drop.3+slow",
      fun seed -> Faults.lossy ~drop:0.3 ~slow:0.2 ~slow_factor:8.0 ~seed () );
    ("/dup.3+fifo", fun seed -> Faults.lossy ~duplicate:0.3 ~reorder:false ~seed ());
    ("/reorder", fun seed -> Faults.lossy ~seed ());
    ("/corrupt", fun seed -> Faults.lossy ~corrupt:(corrupting (seed + 5)) ~seed ());
    ( "/corrupt+drop.2",
      fun seed ->
        Faults.lossy ~drop:0.2 ~duplicate:0.1 ~corrupt:(corrupting (seed + 5))
          ~seed () );
  ]

let delay_of_seed seed = [| 0.05; 1.0; 5.0 |].(seed mod 3)

let sweep ?(trees_only = false) ~count name mk_case =
  QCheck2.Test.make ~name ~count (QCheck2.Gen.int_bound 10_000) (fun seed ->
      let n = 8 + (seed mod 17) in
      let graphs =
        ("tree", Generators.random_tree ~rng:(Rng.create seed) n)
        ::
        (if trees_only then []
         else
           [ ("gnp", Generators.gnp_connected ~rng:(Rng.create (seed + 1)) ~n ~p:0.2) ])
      in
      List.iter
        (fun (fam, g) ->
          match mk_case ~seed g with
          | None -> ()
          | Some case ->
            List.iter
              (fun (rname, regime) ->
                ignore
                  (check_case
                     ~what:(Printf.sprintf "/%s%s seed=%d" fam rname seed)
                     ~faults:(regime (seed + 17))
                     ~max_delay:(delay_of_seed seed) ~rng_seed:(seed + 31) g
                     case))
              regimes)
        graphs;
      true)

let prop_bfs = sweep ~count:12 "reliable = sync: Bfs_tree" (fun ~seed:_ g -> Some (case "bfs" g))

let prop_census =
  sweep ~trees_only:true ~count:12 "reliable = sync: Diam_dom census"
    (fun ~seed g -> Kdom.Battery.case g ~k:(1 + (seed mod 3)) "census")

let prop_coloring =
  sweep ~trees_only:true ~count:10 "reliable = sync: Coloring"
    (fun ~seed:_ g -> Some (case "coloring" g))

let prop_leader =
  sweep ~count:10 "reliable = sync: Leader" (fun ~seed:_ g -> Some (case "leader" g))

let prop_smc =
  sweep ~count:6 "reliable = sync: Simple_mst_congest"
    (fun ~seed g -> Some (case "smc" ~k:(1 + (seed mod 3)) g))

let prop_pipeline =
  sweep ~count:6 "reliable = sync: Pipeline"
    (fun ~seed g -> Some (case "pipeline" ~k:(1 + (seed mod 3)) g))

(* The same drop=0.2 dup=0.1 regime at 20 fixed seeds, so a regression
   there fails every run, not only the runs whose random seeds hit it:
   the six battery algorithms, coloring and census on random trees, the
   rest on connected G(n,p). *)
let test_fixed_seeds () =
  for seed = 0 to 19 do
    let n = 10 + (seed mod 8) and k = 1 + (seed mod 3) in
    let t = Generators.random_tree ~rng:(Rng.create (seed + 900)) n in
    let g = Generators.gnp_connected ~rng:(Rng.create (seed + 950)) ~n ~p:0.25 in
    let faults = Faults.lossy ~drop:0.2 ~duplicate:0.1 ~seed:(seed + 7) () in
    List.iter
      (fun name ->
        let host = if name = "coloring" || name = "census" then t else g in
        Option.iter
          (fun c ->
            ignore
              (check_case ~what:(Printf.sprintf "/seed=%d" seed) ~faults
                 ~max_delay:1.0 ~rng_seed:(seed + 71) host c))
          (Kdom.Battery.case host ~k name))
      Kdom.Battery.names
  done

(* The synchronizer keeps two pulse slots per node and raises if a
   message lands outside them, so a run that completes with the
   synchronous states never broke the skew bound.  Random connected
   graphs (trees for coloring and census) under drop <= 0.3, duplication,
   reordering on or off and one crash-recovery window. *)
let prop_skew_bound =
  QCheck2.Test.make ~name:"skew bound: two pulse slots suffice" ~count:15
    QCheck2.Gen.(
      tup4 (int_bound 10_000) (float_bound_inclusive 0.3) (float_bound_inclusive 0.2)
        bool)
    (fun (seed, drop, dup, reorder) ->
      let n = 6 + (seed mod 15) in
      let rng = Rng.create seed in
      let tree = Generators.random_tree ~rng n in
      let g = Generators.gnp_connected ~rng ~n ~p:0.25 in
      let at = Rng.float rng 3.0 in
      let crashes =
        [ { Faults.node = Rng.int rng n; at; recover = Some (at +. 0.5 +. Rng.float rng 5.0) } ]
      in
      let faults =
        Faults.lossy ~drop ~duplicate:dup ~reorder ~crashes ~seed:(seed + 3) ()
      in
      List.iter
        (fun name ->
          let host = if name = "coloring" || name = "census" then tree else g in
          Option.iter
            (fun c ->
              ignore
                (check_case ~what:(Printf.sprintf "/skew seed=%d" seed) ~faults
                   ~max_delay:(delay_of_seed seed) ~rng_seed:(seed + 5) host c))
            (Kdom.Battery.case host ~k:(1 + (seed mod 3)) name))
        Kdom.Battery.names;
      true)

(* ------------------------------------------------------------------ *)
(* Crashes *)

let test_crash_recovery () =
  let g = Generators.random_tree ~rng:(Rng.create 42) 14 in
  let crashes =
    [
      { Faults.node = 0; at = 0.0; recover = Some 3.0 };   (* crashed at start *)
      { Faults.node = 5; at = 0.7; recover = Some 9.0 };
      { Faults.node = 9; at = 2.0; recover = Some 2.5 };
    ]
  in
  List.iter
    (fun (rname, faults) ->
      ignore
        (check_case ~what:rname ~faults ~max_delay:1.0 ~rng_seed:7 g (case "bfs" g));
      ignore
        (check_case ~what:rname ~faults ~max_delay:1.0 ~rng_seed:8 g
           (case "leader" g)))
    [
      ("/crash", Faults.lossy ~crashes ~seed:3 ());
      ("/crash+drop", Faults.lossy ~drop:0.15 ~duplicate:0.1 ~crashes ~seed:4 ());
    ]

let test_permanent_crash_fails () =
  let g = Generators.path ~rng:(Rng.create 13) 6 in
  let faults =
    Faults.lossy ~crashes:[ { Faults.node = 3; at = 0.0; recover = None } ] ~seed:5 ()
  in
  match
    Async.run_reliable ~rng:(Rng.create 2) ~faults ~max_attempts:4
      ~max_words:Kdom.Bfs_tree.max_words g (Kdom.Bfs_tree.algorithm g ~root:0)
  with
  | _ -> Alcotest.fail "expected failure against a permanently crashed node"
  | exception Async.Delivery_failed { dst = 3; _ } -> ()
  | exception Async.Delivery_failed { src; dst; _ } ->
    Alcotest.failf "Delivery_failed on unexpected link %d -> %d" src dst

(* Adversarial per-link schedule: one targeted, nearly-dead link. *)
let test_adversarial_link () =
  let g = Generators.path ~rng:(Rng.create 17) 8 in
  let bad = { Faults.drop = 0.9; duplicate = 0.; slow = 0.; slow_factor = 1. } in
  let faults =
    {
      Faults.link = Faults.reliable_link;
      overrides = [ ((3, 4), bad); ((4, 3), bad) ];
      reorder = true;
      crashes = [];
      churn = [];
      seed = 23;
      corrupt = None;
    }
  in
  let frep = check_case ~what:"/adversarial" ~faults ~max_delay:1.0 ~rng_seed:3 g (case "bfs" g) in
  if frep.retransmits = 0 then
    Alcotest.fail "a 90%-loss link must force retransmissions"

(* ------------------------------------------------------------------ *)
(* The link layer itself *)

let test_zero_faults_zero_retransmits () =
  let g = Generators.gnp_connected ~rng:(Rng.create 29) ~n:20 ~p:0.2 in
  let t = Generators.random_tree ~rng:(Rng.create 30) 20 in
  let cases =
    [
      (g, case "bfs" g);
      (g, case "leader" g);
      (g, case "smc" ~k:2 g);
      (g, case "pipeline" ~k:2 g);
      (t, case "coloring" t);
    ]
    @ match Kdom.Battery.case t ~k:2 "census" with None -> [] | Some c -> [ (t, c) ]
  in
  List.iter
    (fun (g, case) ->
      let frep =
        check_case ~what:"/none" ~faults:Faults.none ~max_delay:1.0 ~rng_seed:11
          g case
      in
      Alcotest.(check int) "no retransmits on a fault-free network" 0
        frep.retransmits;
      Alcotest.(check int) "no drops" 0 frep.dropped;
      Alcotest.(check int) "no duplicates" 0 frep.duplicated;
      Alcotest.(check int) "no crash drops" 0 frep.crash_dropped)
    cases

(* Regression for the delay sampler: documented as uniform on
   (0, max_delay] — strictly positive, able to attain the upper endpoint,
   never beyond it.  The historical sampler drew from [0, max_delay) with a
   1e-9 clamp. *)
let test_delay_sampler () =
  let rng = Rng.create 97 in
  let max_delay = 0.25 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let d = Faults.sample_delay rng ~max_delay in
    if not (d > 0.0) then Alcotest.failf "sampled non-positive delay %g" d;
    if d > max_delay then Alcotest.failf "sampled %g > max_delay %g" d max_delay;
    sum := !sum +. d
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. (max_delay /. 2.)) > 0.01 *. max_delay then
    Alcotest.failf "sampler mean %g far from %g" mean (max_delay /. 2.);
  (* the documented interval is half-open at 0: a draw of u = 0 must map to
     max_delay exactly, so the endpoint is attainable *)
  Alcotest.(check bool) "rejects non-positive max_delay" true
    (match Faults.sample_delay rng ~max_delay:0.0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* A bad delay parameter is rejected before anything runs, naming the
   parameter: a NaN delay once broke the event order and ended in
   Delivery_failed, an infinite one "succeeded" with infinite times, and
   max_delay = 0 was reported as a bad ack_timeout. *)
let test_bad_delays_rejected () =
  let g = Generators.grid ~rng:(Rng.create 1) ~rows:4 ~cols:4 in
  let faults = Faults.lossy ~drop:0.1 ~seed:3 () in
  let rejects what run =
    match run () with
    | _ -> Alcotest.failf "accepted a bad %s" what
    | exception Invalid_argument msg ->
      if not (List.mem what (String.split_on_char ' ' msg)) then
        Alcotest.failf "error %S does not name %s" msg what
  in
  let run ?max_delay ?ack_timeout () =
    Async.run_reliable ~rng:(Rng.create 2) ~faults ?max_delay ?ack_timeout
      ~max_words:Kdom.Bfs_tree.max_words g (Kdom.Bfs_tree.algorithm g ~root:0)
  in
  List.iter
    (fun d ->
      rejects "max_delay" (run ~max_delay:d);
      rejects "ack_timeout" (run ~ack_timeout:d))
    [ Float.nan; 0.0; -1.0; Float.infinity ];
  List.iter
    (fun slow_factor ->
      match Faults.compile (Engine.create g) (Faults.lossy ~slow:0.5 ~slow_factor ~seed:1 ()) with
      | _ -> Alcotest.failf "accepted slow_factor %g" slow_factor
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; 0.5 ]

(* Per-pulse sink records must be consistent with the returned report and
   fault counters. *)
let test_sink_consistency_under_faults () =
  let g = Generators.gnp_connected ~rng:(Rng.create 51) ~n:16 ~p:0.25 in
  let counters, rounds_info = Engine.Sink.counters () in
  let faults = Faults.lossy ~drop:0.2 ~duplicate:0.1 ~seed:9 () in
  let _, frep =
    Async.run_reliable ~rng:(Rng.create 12) ~faults ~sink:counters
      ~max_words:Kdom.Leader.max_words g (Kdom.Leader.algorithm g)
  in
  let infos = rounds_info () in
  let sum c =
    List.fold_left (fun a (i : Engine.Sink.round_info) -> a + i.counts.(c)) 0 infos
  in
  Alcotest.(check int) "one record per pulse" frep.report.pulses
    (List.length infos);
  Alcotest.(check int) "delivered sums to alg_messages"
    frep.report.alg_messages
    (sum Engine.Sink.delivered);
  Alcotest.(check int) "sent sums to alg_messages" frep.report.alg_messages
    (sum Engine.Sink.sent);
  Alcotest.(check int) "retransmits sum to the report" frep.retransmits
    (sum Engine.Sink.retransmits);
  Alcotest.(check int) "drops sum to the report" frep.dropped
    (sum Engine.Sink.dropped);
  Alcotest.(check int) "duplicates sum to the report" frep.duplicated
    (sum Engine.Sink.duplicated);
  if frep.dropped = 0 then Alcotest.fail "regime at drop=0.2 dropped nothing"

(* Regression: a duplicated frame must be delivered to the algorithm exactly
   once.  On a link that duplicates every frame, the per-pulse [delivered]
   totals (and the report's [alg_messages]) must still equal the message
   count of the synchronous run — the sequence-number filter absorbs every
   copy, and only the counters record that copies existed. *)
let test_duplicates_not_delivered_twice () =
  let g = Generators.gnp_connected ~rng:(Rng.create 83) ~n:14 ~p:0.25 in
  let _, sync_stats =
    Runtime.run ~max_words:Kdom.Leader.max_words g (Kdom.Leader.algorithm g)
  in
  let counters, rounds_info = Engine.Sink.counters () in
  let faults = Faults.lossy ~duplicate:1.0 ~seed:19 () in
  let _, frep =
    Async.run_reliable ~rng:(Rng.create 21) ~faults ~sink:counters
      ~max_words:Kdom.Leader.max_words g (Kdom.Leader.algorithm g)
  in
  let delivered =
    List.fold_left
      (fun a (i : Engine.Sink.round_info) -> a + i.counts.(Engine.Sink.delivered))
      0 (rounds_info ())
  in
  if frep.duplicated = 0 then
    Alcotest.fail "a 100%-duplication link duplicated nothing";
  Alcotest.(check int) "alg_messages = synchronous message count"
    sync_stats.Engine.messages frep.report.alg_messages;
  Alcotest.(check int) "sink delivered = synchronous message count"
    sync_stats.Engine.messages delivered

(* Determinism: same seeds, same everything. *)
let test_deterministic () =
  let g = Generators.gnp_connected ~rng:(Rng.create 61) ~n:14 ~p:0.25 in
  let faults = Faults.lossy ~drop:0.25 ~duplicate:0.15 ~seed:77 () in
  let run () =
    Async.run_reliable ~rng:(Rng.create 5) ~faults
      ~max_words:Kdom.Leader.max_words g (Kdom.Leader.algorithm g)
  in
  let s1, f1 = run () in
  let s2, f2 = run () in
  if s1 <> s2 then Alcotest.fail "same seeds produced different states";
  Alcotest.(check int) "same frame count" f1.frames f2.frames;
  Alcotest.(check int) "same retransmits" f1.retransmits f2.retransmits;
  Alcotest.(check int) "same drops" f1.dropped f2.dropped

(* ------------------------------------------------------------------ *)
(* Cross-version pins: the event order of the link layer *)

(* Fixed-seed runs whose whole fault report and completion time are
   pinned, so a rewrite of the executor that reorders a single event —
   a timer popped before an arrival at the same instant, one more draw
   from a stream — changes a number here.  Each config exercises one
   path of the link layer: kbench async-lossy's lossy reordering grid,
   the per-link FIFO clamp, slowed copies, a sender whose retransmit
   timers fire while it is crashed (postponed to its recovery), garbled
   copies, and a 90%-loss link whose frames reach attempt 4 and beyond. *)
let pin_configs =
  let tree n seed = Generators.random_tree ~rng:(Rng.create seed) n in
  let gnp n seed = Generators.gnp_connected ~rng:(Rng.create seed) ~n ~p:0.2 in
  let bad = { Faults.drop = 0.9; duplicate = 0.; slow = 0.; slow_factor = 1. } in
  let path8 = Generators.path ~rng:(Rng.create 17) 8 in
  [
    ( "async-lossy grid",
      Generators.grid ~rng:(Rng.create 1) ~rows:20 ~cols:20,
      "bfs",
      1,
      Faults.lossy ~drop:0.1 ~duplicate:0.05 ~reorder:true ~seed:11 (),
      1.0,
      21 );
    ( "fifo clamp",
      gnp 24 3,
      "leader",
      1,
      Faults.lossy ~drop:0.2 ~duplicate:0.1 ~reorder:false ~seed:12 (),
      1.0,
      22 );
    ( "slow links",
      tree 30 4,
      "coloring",
      1,
      Faults.lossy ~drop:0.1 ~slow:0.3 ~slow_factor:8.0 ~seed:13 (),
      0.5,
      23 );
    ( "slow pipeline",
      gnp 20 5,
      "pipeline",
      2,
      Faults.lossy ~drop:0.15 ~duplicate:0.1 ~slow:0.2 ~seed:14 (),
      1.0,
      24 );
    ( "crashed sender",
      tree 24 6,
      "census",
      2,
      Faults.lossy ~drop:0.1 ~duplicate:0.05
        ~crashes:
          [
            { Faults.node = 3; at = 1.5; recover = Some 14.0 };
            { Faults.node = 7; at = 4.0; recover = Some 30.0 };
            { Faults.node = 0; at = 0.0; recover = Some 2.0 };
          ]
        ~seed:15 (),
      1.0,
      25 );
    ( "garbled copies",
      gnp 20 7,
      "smc",
      2,
      Faults.lossy ~drop:0.05
        ~corrupt:(Engine.Corrupt.make ~flip:5e-3 ~burst:2 ~truncate:2e-3 ~seed:8 ())
        ~seed:16 (),
      1.0,
      26 );
    ( "90%-loss link",
      path8,
      "bfs",
      1,
      {
        Faults.link = Faults.reliable_link;
        overrides = [ ((3, 4), bad); ((4, 3), bad) ];
        reorder = true;
        crashes = [];
        churn = [];
        seed = 23;
        corrupt = None;
      },
      1.0,
      3 );
  ]

let pin_run (_, g, name, k, faults, max_delay, rng_seed) =
  let (Chaos.Case (_, max_words, mk, _)) = Option.get (Kdom.Battery.case g ~k name) in
  let sync_states, _ = Runtime.run ~max_words g (mk ()) in
  let states, f =
    Async.run_reliable ~rng:(Rng.create rng_seed) ~faults ~max_delay ~max_words g
      (mk ())
  in
  ( states = sync_states,
    [|
      f.Async.frames;
      f.retransmits;
      f.timeouts;
      f.dropped;
      f.duplicated;
      f.crash_dropped;
      f.corrupted;
      f.report.pulses;
      f.report.alg_messages;
      f.report.sync_messages;
    |],
    Printf.sprintf "%h" f.report.async_time )

(* Recorded before the executor moved to flat arrays; a mismatch means
   the event order changed.  Counts: frames, retransmits, timeouts,
   dropped, duplicated, crash_dropped, corrupted, pulses, alg_messages,
   sync_messages; then async_time as a hex float. *)
let pin_expected =
  [
    ("async-lossy grid", [| 432373; 40797; 40797; 42932; 19662; 0; 0; 121; 2318; 179080 |], "0x1.1af63948761b7p+10");
    ("fifo clamp", [| 5952; 1028; 1028; 1154; 467; 0; 0; 13; 381; 1766 |], "0x1.cdd1bd24c34e7p+7");
    ("slow links", [| 3457; 607; 607; 352; 0; 0; 0; 16; 261; 974 |], "0x1.132f1edc5918ep+6");
    ("slow pipeline", [| 2305; 405; 405; 340; 197; 0; 0; 12; 89; 707 |], "0x1.c04faaf5af156p+6");
    ("crashed sender", [| 3103; 290; 291; 308; 144; 12; 0; 27; 92; 1222 |], "0x1.01366165d6addp+7");
    ("garbled copies", [| 9921; 594; 594; 491; 0; 0; 111; 51; 247; 4290 |], "0x1.e5bf455ac593fp+7");
    ("90%-loss link", [| 2526; 1657; 1657; 1686; 0; 0; 0; 25; 28; 353 |], "0x1.404012c121999p+48");
  ]

let pin_fields =
  [| "frames"; "retransmits"; "timeouts"; "dropped"; "duplicated"; "crash_dropped";
     "corrupted"; "pulses"; "alg_messages"; "sync_messages" |]

let test_pinned_event_order () =
  List.iter2
    (fun ((name, _, _, _, _, _, _) as c) (name', counts, time) ->
      assert (name = name');
      let same, got, got_time = pin_run c in
      if not same then Alcotest.failf "%s: states differ from the synchronous run" name;
      Array.iteri
        (fun i field -> Alcotest.(check int) (name ^ " " ^ field) counts.(i) got.(i))
        pin_fields;
      Alcotest.(check string) (name ^ " async_time") time got_time)
    pin_configs pin_expected

(* ------------------------------------------------------------------ *)
(* Corruption storms *)

let tally_of (c : Engine.Corrupt.spec) =
  Engine.Corrupt.(c.tally.injected, c.tally.detected, c.tally.truncated)

(* The full corruption x drop x crash matrix.  check_case already enforces
   bit-identity with the synchronous run and the per-algorithm oracle; on
   top of that, every rejected copy must be accounted for by the tally,
   and with no crashed receivers every injected garble must be detected —
   zero corrupted frames delivered to algorithm code. *)
let test_corruption_matrix () =
  let g = Generators.gnp_connected ~rng:(Rng.create 71) ~n:14 ~p:0.25 in
  let total_rejected = ref 0 in
  List.iter
    (fun flip ->
      List.iter
        (fun drop ->
          List.iter
            (fun crashes ->
              let corrupt =
                Engine.Corrupt.make ~flip ~burst:2 ~truncate:(flip /. 2.)
                  ~seed:91 ()
              in
              let faults =
                Faults.lossy ~drop ~duplicate:0.05 ~crashes ~corrupt ~seed:13 ()
              in
              let what =
                Printf.sprintf "/flip%g+drop%g+crash%d" flip drop
                  (List.length crashes)
              in
              List.iter
                (fun case ->
                  let frep =
                    check_case ~what ~faults ~max_delay:1.0 ~rng_seed:37 g case
                  in
                  let injected, detected, _ = tally_of corrupt in
                  Alcotest.(check int)
                    (what ^ ": every rejection is a tallied detection")
                    detected frep.corrupted;
                  (* the undetected remainder never reached algorithm code
                     either: those copies arrived at a crashed receiver or
                     were still in flight at quiescence — the bit-identity
                     check above is the proof *)
                  if injected < detected then
                    Alcotest.failf "%s: detected %d > injected %d" what
                      detected injected;
                  if drop = 0.0 then
                    Alcotest.(check int)
                      (what ^ ": integrity rejections are not link drops") 0
                      frep.dropped;
                  total_rejected := !total_rejected + frep.corrupted)
                [ case "bfs" g; case "leader" g ])
            [ []; [ { Faults.node = 2; at = 0.5; recover = Some 4.5 } ] ])
        [ 0.0; 0.1 ])
    [ 1e-3; 1e-2 ];
  if !total_rejected = 0 then
    Alcotest.fail "the corruption matrix never rejected a frame"

(* The corrupted sink counter: per-pulse records sum to the report, and a
   corrupting-but-lossless regime keeps [dropped] at zero while
   [corrupted] counts — the two counters are distinct streams. *)
let test_sink_corrupted_counter () =
  let g = Generators.gnp_connected ~rng:(Rng.create 53) ~n:16 ~p:0.25 in
  let counters, rounds_info = Engine.Sink.counters () in
  let corrupt = Engine.Corrupt.make ~flip:1e-2 ~burst:2 ~seed:7 () in
  let faults = Faults.lossy ~corrupt ~seed:9 () in
  let _, frep =
    Async.run_reliable ~rng:(Rng.create 12) ~faults ~sink:counters
      ~max_words:Kdom.Leader.max_words g (Kdom.Leader.algorithm g)
  in
  let infos = rounds_info () in
  let sum c =
    List.fold_left (fun a (i : Engine.Sink.round_info) -> a + i.counts.(c)) 0 infos
  in
  if frep.corrupted = 0 then
    Alcotest.fail "a 1e-2 flip regime rejected nothing";
  Alcotest.(check int) "sink corrupted sums to the report" frep.corrupted
    (sum Engine.Sink.corrupted);
  Alcotest.(check int) "no link drops in a corruption-only regime" 0
    frep.dropped;
  Alcotest.(check int) "corrupted copies forced retransmissions" 0
    (if frep.retransmits > 0 then 0 else 1)

(* Enabling a zero-probability corruption plane changes frame sizes (the
   guard word) but must not perturb the loss/duplication/delay decision
   stream: corruption draws from its own dedicated stream. *)
let test_zero_flip_corruption_is_inert () =
  let g = Generators.gnp_connected ~rng:(Rng.create 57) ~n:14 ~p:0.25 in
  let run faults =
    Async.run_reliable ~rng:(Rng.create 4) ~faults
      ~max_words:Kdom.Leader.max_words g (Kdom.Leader.algorithm g)
  in
  let s1, f1 = run (Faults.lossy ~drop:0.2 ~duplicate:0.1 ~seed:31 ()) in
  let corrupt = Engine.Corrupt.make ~flip:0.0 ~truncate:0.0 ~seed:3 () in
  let s2, f2 =
    run (Faults.lossy ~drop:0.2 ~duplicate:0.1 ~corrupt ~seed:31 ())
  in
  if s1 <> s2 then Alcotest.fail "inert corruption changed the states";
  Alcotest.(check int) "same frames" f1.frames f2.frames;
  Alcotest.(check int) "same drops" f1.dropped f2.dropped;
  Alcotest.(check int) "same duplicates" f1.duplicated f2.duplicated;
  Alcotest.(check int) "same retransmits" f1.retransmits f2.retransmits;
  Alcotest.(check int) "nothing corrupted" 0 f2.corrupted

let () =
  Alcotest.run "faults"
    [
      ( "matrix",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bfs;
            prop_census;
            prop_coloring;
            prop_leader;
            prop_smc;
            prop_pipeline;
          ]
        @ [
            Alcotest.test_case "20 fixed seeds at drop 0.2, dup 0.1" `Quick
              test_fixed_seeds;
            QCheck_alcotest.to_alcotest prop_skew_bound;
          ] );
      ( "crashes",
        [
          Alcotest.test_case "crash-recovery schedules" `Quick
            test_crash_recovery;
          Alcotest.test_case "permanent crash severs delivery" `Quick
            test_permanent_crash_fails;
          Alcotest.test_case "adversarial 90%-loss link" `Quick
            test_adversarial_link;
        ] );
      ( "link layer",
        [
          Alcotest.test_case "zero faults, zero retransmits" `Quick
            test_zero_faults_zero_retransmits;
          Alcotest.test_case "delay sampler interval" `Quick test_delay_sampler;
          Alcotest.test_case "bad delays rejected up front" `Quick
            test_bad_delays_rejected;
          Alcotest.test_case "sink consistency under faults" `Quick
            test_sink_consistency_under_faults;
          Alcotest.test_case "duplicates delivered exactly once" `Quick
            test_duplicates_not_delivered_twice;
          Alcotest.test_case "determinism" `Quick test_deterministic;
          Alcotest.test_case "pinned event order" `Quick test_pinned_event_order;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "corruption x drop x crash matrix" `Quick
            test_corruption_matrix;
          Alcotest.test_case "corrupted sink counter" `Quick
            test_sink_corrupted_counter;
          Alcotest.test_case "zero-flip corruption is inert" `Quick
            test_zero_flip_corruption_is_inert;
        ] );
    ]
