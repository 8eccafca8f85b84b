(* Tests for Kdom_congest.Trace and Kdom_congest.Metrics: the span/clock
   mechanics, the sink integration, the exporters and their validator, the
   golden JSONL schema files, and — the point of the whole subsystem — the
   paper's round bounds asserted against live traced executions:

   - Lemma 4.3: span [simple_mst.phase[i]] charges exactly [5*2^i + 2]
     rounds in the phase-level simulation, and the message-level schedule
     spends at most [5*2^i + 10];
   - Lemma 2.3: a traced [DiamDOM] run stays within
     [round_bound = 5*Diam + k + 10], and each pipelined [census(l)] span
     lives for at most [height + 1] rounds starting at offset [l];
   - the declared per-message word budget is never exceeded
     ([Metrics.within_budget] over the observed peak). *)

open Kdom_graph
open Kdom_congest

(* ------------------------------------------------------------------ *)
(* Span/clock mechanics *)

let test_clock_and_nesting () =
  let tr = Trace.create () in
  Alcotest.(check int) "fresh clock" 0 (Trace.clock tr);
  let r =
    Trace.span tr "outer" (fun () ->
        Trace.charge tr 3;
        Trace.span tr "outer.inner" (fun () -> Trace.charge tr 2);
        17)
  in
  Alcotest.(check int) "span returns f's value" 17 r;
  Alcotest.(check int) "clock advanced by both charges" 5 (Trace.clock tr);
  match Trace.spans tr with
  | [ outer; inner ] ->
    Alcotest.(check string) "outer name" "outer" outer.name;
    Alcotest.(check int) "outer start" 0 outer.start_round;
    Alcotest.(check int) "outer stop" 5 outer.stop_round;
    Alcotest.(check int) "outer is a root span" (-1) outer.parent;
    Alcotest.(check int) "outer depth" 0 outer.depth;
    Alcotest.(check string) "inner name" "outer.inner" inner.name;
    Alcotest.(check int) "inner start" 3 inner.start_round;
    Alcotest.(check int) "inner stop" 5 inner.stop_round;
    Alcotest.(check int) "inner parent" outer.id inner.parent;
    Alcotest.(check int) "inner depth" 1 inner.depth
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_closes_on_exception () =
  let tr = Trace.create () in
  (try
     Trace.span tr "doomed" (fun () ->
         Trace.charge tr 4;
         failwith "boom")
   with Failure _ -> ());
  match Trace.spans tr with
  | [ s ] ->
    Alcotest.(check int) "closed at the clock the body reached" 4 s.stop_round
  | _ -> Alcotest.fail "expected exactly one span"

let test_argument_validation () =
  let tr = Trace.create () in
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "negative charge rejected" true
    (raises (fun () -> Trace.charge tr (-1)));
  Alcotest.(check bool) "inverted synthetic span rejected" true
    (raises (fun () ->
         Trace.add_span tr ~name:"bad" ~start_round:5 ~stop_round:4 ()))

let test_observe_zero_dispatch () =
  (* no trace: the engine must stay on its zero-dispatch path, which is
     guarded by physical equality with Sink.null *)
  Alcotest.(check bool) "an untraced run gets Sink.null itself" true
    (Trace.observe None ~max_words:1 "untraced" Fun.id == Engine.Sink.null)

let test_synthetic_spans_and_tracks () =
  let tr = Trace.create () in
  Trace.span tr "parent" (fun () ->
      Trace.charge tr 10;
      Trace.add_span tr ~track:1 ~name:"par[0]" ~start_round:0 ~stop_round:6 ();
      Trace.add_span tr ~track:2 ~name:"par[1]" ~start_round:0 ~stop_round:9 ());
  match Trace.spans tr with
  | [ p; a; b ] ->
    Alcotest.(check int) "synthetic child parent" p.id a.parent;
    Alcotest.(check int) "overlapping spans get distinct tracks" 2 b.track;
    Alcotest.(check int) "explicit bounds kept" 9 b.stop_round
  | _ -> Alcotest.fail "expected 3 spans"

(* ------------------------------------------------------------------ *)
(* Engine integration *)

let test_engine_rounds_drive_clock () =
  let g = Generators.random_tree ~rng:(Rng.create 3) 24 in
  let tr = Trace.create () in
  let _info, (stats : Engine.stats) = Kdom.Bfs_tree.run ~trace:tr g ~root:0 in
  Alcotest.(check int) "clock = engine rounds" stats.rounds (Trace.clock tr);
  Alcotest.(check int) "one round record per round" stats.rounds
    (List.length (Trace.rounds tr));
  Alcotest.(check int) "messages observed at send time" stats.messages
    (Trace.messages tr);
  let m = Metrics.report tr in
  Alcotest.(check int) "metrics delivered = engine messages" stats.messages
    m.delivered;
  Alcotest.(check bool) "bfs declares its budget" true (m.budget <> None);
  Alcotest.(check bool) "budget respected" true (Metrics.within_budget m);
  match Metrics.find m "bfs_tree" with
  | None -> Alcotest.fail "no bfs_tree span"
  | Some r ->
    Alcotest.(check int) "bfs_tree span covers the run" stats.rounds r.r_rounds;
    Alcotest.(check int) "all deliveries inside the span" stats.messages
      r.r_counts.(Engine.Sink.delivered)

let test_metrics_helpers () =
  Alcotest.(check (option int)) "span_index" (Some 4)
    (Metrics.span_index "simple_mst.phase[4]");
  Alcotest.(check (option int)) "span_index on plain name" None
    (Metrics.span_index "bfs_tree");
  let tr = Trace.create () in
  Trace.note tr "frames" 12;
  Trace.note tr "frames" 15;
  Trace.note tr "timeouts" 2;
  let m = Metrics.report tr in
  Alcotest.(check (list (pair string int))) "notes overwrite by name"
    [ ("frames", 15); ("timeouts", 2) ]
    m.notes

(* ------------------------------------------------------------------ *)
(* Paper bounds from live traces *)

let test_bound_simple_mst_phases () =
  (* Lemma 4.3, phase-level: phase i charges exactly 5*2^i + 2 rounds *)
  let g = Generators.gnp_connected ~rng:(Rng.create 5) ~n:60 ~p:0.15 in
  let tr = Trace.create () in
  let r = Kdom.Simple_mst.run ~trace:tr g ~k:5 in
  let phases = Metrics.matching (Metrics.report tr) ~prefix:"simple_mst.phase" in
  Alcotest.(check int) "one span report per phase" r.phases (List.length phases);
  List.iter
    (fun (p : Metrics.span_report) ->
      match Metrics.span_index p.r_name with
      | None -> Alcotest.failf "unindexed phase span %s" p.r_name
      | Some i ->
        Alcotest.(check int)
          (Printf.sprintf "%s charges 5*2^%d + 2" p.r_name i)
          ((5 * (1 lsl i)) + 2)
          p.r_max_rounds)
    phases;
  Alcotest.(check bool) "clock within the closed-form bound" true
    (Trace.clock tr <= Kdom.Simple_mst.round_bound ~k:5)

let test_bound_simple_mst_congest_phases () =
  (* Lemma 4.3, message-level: the fixed schedule gives phase i at most
     5*2^i + 10 rounds (the paper's bound plus handshake slack) *)
  let g = Generators.gnp_connected ~rng:(Rng.create 6) ~n:40 ~p:0.15 in
  let tr = Trace.create () in
  let _r = Kdom.Simple_mst_congest.run ~trace:tr g ~k:4 in
  let m = Metrics.report tr in
  let phases = Metrics.matching m ~prefix:"simple_mst.phase" in
  Alcotest.(check bool) "at least one phase traced" true (phases <> []);
  List.iter
    (fun (p : Metrics.span_report) ->
      match Metrics.span_index p.r_name with
      | None -> Alcotest.failf "unindexed phase span %s" p.r_name
      | Some i ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %d rounds <= 5*2^%d + 10" p.r_name
             p.r_max_rounds i)
          true
          (p.r_max_rounds <= (5 * (1 lsl i)) + 10))
    phases;
  Alcotest.(check bool) "word budget respected" true (Metrics.within_budget m);
  Alcotest.(check bool) "peak within declared max_words" true
    (m.peak_words <= Kdom.Simple_mst_congest.max_words)

let test_bound_diam_dom () =
  (* Lemma 2.3 on a path, where Diam = n - 1 exactly *)
  let n = 33 and k = 3 in
  let g = Generators.path ~rng:(Rng.create 7) n in
  let tr = Trace.create () in
  let r = Kdom.Diam_dom.run ~trace:tr g ~root:0 ~k in
  let diam = n - 1 in
  let m = Metrics.report tr in
  Alcotest.(check bool)
    (Printf.sprintf "total %d <= 5*Diam + k + 10 = %d" r.rounds
       (Kdom.Diam_dom.round_bound ~diam ~k))
    true
    (r.rounds <= Kdom.Diam_dom.round_bound ~diam ~k);
  Alcotest.(check int) "clock = reported rounds" r.rounds (Trace.clock tr);
  (match Metrics.find m "diam_dom" with
  | None -> Alcotest.fail "no diam_dom span"
  | Some s ->
    Alcotest.(check int) "diam_dom span covers the whole run" r.rounds
      s.r_rounds);
  (* each pipelined census(l) span lives [l, l + M + 1) relative to the
     census stage — so at most height + 1 rounds *)
  let height = r.init.height in
  let censuses = Metrics.matching m ~prefix:"diam_dom.census[" in
  Alcotest.(check int) "k+1 censuses traced" (k + 1) (List.length censuses);
  List.iter
    (fun (c : Metrics.span_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d rounds <= height + 1" c.r_name c.r_max_rounds)
        true
        (c.r_max_rounds <= height + 1))
    censuses;
  Alcotest.(check bool) "census word budget respected" true
    (Metrics.within_budget m);
  Alcotest.(check bool) "peak within census_max_words" true
    (m.peak_words <= Kdom.Diam_dom.census_max_words)

let test_bound_pipelined_census_offsets () =
  (* Lemma 2.3's pipelining, observable in the trace: census l starts
     exactly l rounds into the census stage *)
  let g = Generators.random_tree ~rng:(Rng.create 8) 40 in
  let k = 2 in
  let tr = Trace.create () in
  let _r = Kdom.Diam_dom.run ~trace:tr g ~root:0 ~k in
  let census_stage =
    List.find (fun (s : Trace.span) -> s.name = "diam_dom.census") (Trace.spans tr)
  in
  List.iter
    (fun (s : Trace.span) ->
      match Metrics.span_index s.name with
      | Some l when String.length s.name >= 16
                    && String.sub s.name 0 16 = "diam_dom.census[" ->
        Alcotest.(check int)
          (Printf.sprintf "census[%d] starts at stage offset %d" l l)
          (census_stage.start_round + l)
          s.start_round;
        Alcotest.(check int)
          (Printf.sprintf "census[%d] on its own track" l)
          (l + 1) s.track
      | _ -> ())
    (Trace.spans tr)

let test_composite_fast_mst () =
  (* the full Theorem 5.6 composition traced end to end: the span tree
     contains every stage and the fragment spans overlap in parallel *)
  let g = Generators.gnp_connected ~rng:(Rng.create 9) ~n:50 ~p:0.12 in
  let tr = Trace.create () in
  let r = Kdom.Fast_mst.run ~trace:tr g in
  let m = Metrics.report tr in
  List.iter
    (fun name ->
      if Metrics.find m name = None then Alcotest.failf "missing span %s" name)
    [ "fast_mst"; "bfs_tree"; "fastdom_g"; "fastdom_g.forest";
      "pipeline.upcast"; "pipeline.broadcast" ];
  let frags = Metrics.matching m ~prefix:"fastdom_g.fragment" in
  Alcotest.(check int) "one span per fragment" (List.length r.fragments)
    (List.fold_left (fun a (p : Metrics.span_report) -> a + p.r_count) 0 frags);
  (* parallel fragments share a start round *)
  let starts =
    List.filter_map
      (fun (s : Trace.span) ->
        if String.length s.name >= 18 && String.sub s.name 0 18 = "fastdom_g.fragment"
        then Some s.start_round
        else None)
      (Trace.spans tr)
  in
  (match starts with
  | [] -> Alcotest.fail "no fragment spans"
  | s0 :: rest ->
    List.iter (Alcotest.(check int) "fragments start together" s0) rest);
  Alcotest.(check bool) "within Theorem 5.6 shape" true
    (r.rounds <= Kdom.Fast_mst.round_bound ~n:(Graph.n g) ~diam:(Graph.n g))

(* ------------------------------------------------------------------ *)
(* Exporters and validation *)

let traced_run () =
  let g = Generators.random_tree ~rng:(Rng.create 11) 20 in
  let tr = Trace.create () in
  ignore (Kdom.Diam_dom.run ~trace:tr g ~root:0 ~k:2);
  Trace.note tr "example" 1;
  tr

let lines_of s =
  String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let test_jsonl_validates () =
  let tr = traced_run () in
  let lines = lines_of (Trace.to_jsonl tr) in
  (match Trace.validate_lines lines with
  | Ok n -> Alcotest.(check int) "all lines checked" (List.length lines) n
  | Error e -> Alcotest.failf "self-produced trace rejected: %s" e);
  (* every round record carries the full homogeneous field set *)
  List.iter
    (fun l ->
      if String.length l > 16 && String.sub l 0 16 = {|{"type":"round",|} then
        List.iter
          (fun field ->
            let needle = Printf.sprintf "%S:" field in
            let ls = String.length l and ln = String.length needle in
            let rec find i =
              i + ln <= ls && (String.sub l i ln = needle || find (i + 1))
            in
            if not (find 0) then Alcotest.failf "round line %s misses %s" l field)
          [ "dropped"; "duplicated"; "retransmits" ])
    lines

let test_validator_rejects () =
  let tr = traced_run () in
  let lines = lines_of (Trace.to_jsonl tr) in
  let expect_error what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "validator accepted %s" what
  in
  expect_error "an empty trace" (Trace.validate_lines []);
  expect_error "a headless trace" (Trace.validate_lines (List.tl lines));
  expect_error "a truncated trace"
    (Trace.validate_lines (List.filteri (fun i _ -> i < List.length lines - 1) lines));
  expect_error "garbage" (Trace.validate_lines [ "not json at all" ]);
  expect_error "an unknown record type"
    (Trace.validate_line {|{"type":"mystery","x":1}|});
  expect_error "a span line missing its id"
    (Trace.validate_line
       {|{"type":"span","name":"x","parent":-1,"depth":0,"track":0,"start":0,"end":1,"rounds":1,"delivered":0,"words":0,"dropped":0,"duplicated":0,"retransmits":0}|});
  expect_error "a wrong schema header"
    (Trace.validate_line ~first:true {|{"type":"meta","schema":"kdom.trace.v0"}|})

let test_chrome_export_shape () =
  let tr = traced_run () in
  let s = Trace.to_chrome tr in
  let contains needle =
    let ls = String.length s and ln = String.length needle in
    let rec find i = i + ln <= ls && (String.sub s i ln = needle || find (i + 1)) in
    find 0
  in
  Alcotest.(check bool) "object with traceEvents" true
    (String.length s > 2 && s.[0] = '{' && contains {|"traceEvents"|});
  Alcotest.(check bool) "complete events" true (contains {|"ph":"X"|});
  Alcotest.(check bool) "counter track" true (contains {|"ph":"C"|});
  Alcotest.(check bool) "census spans present" true
    (contains {|"name":"diam_dom.census[0]"|})

(* The round lines [Sink.jsonl] streams come from the same table printer
   as [Trace.to_jsonl], so each passes the trace validator — every
   counter present, fault counters included, on a synchronous run. *)
let test_sink_jsonl_rounds_validate () =
  let g = Generators.random_tree ~rng:(Rng.create 3) 24 in
  let file = Filename.temp_file "kdom_sink" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      let _, (stats : Engine.stats) =
        Runtime.run ~max_words:Kdom.Bfs_tree.max_words
          ~sink:(Engine.Sink.jsonl oc) g
          (Kdom.Bfs_tree.algorithm g ~root:0)
      in
      close_out oc;
      let ic = open_in file in
      let lines =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> lines_of (really_input_string ic (in_channel_length ic)))
      in
      Alcotest.(check int) "one round line per round" stats.rounds
        (List.length lines);
      List.iter
        (fun l ->
          match Trace.validate_line l with
          | Ok () -> ()
          | Error e -> Alcotest.failf "streamed %s: %s" l e)
        lines)

(* ------------------------------------------------------------------ *)
(* Counter sums: for every counter in the table, the Metrics total, the
   sum over the buffered round records, and the stats of a root span
   covering the run agree. *)

let check_counter_sums what run =
  let tr = Trace.create () in
  Trace.span tr "root" (fun () -> run (Trace.sink tr));
  let m = Metrics.report tr in
  let root = List.hd (Trace.spans tr) in
  let st = Trace.span_stats tr root in
  let rep = Option.get (Metrics.find m "root") in
  for c = 0 to Engine.Sink.n_counters - 1 do
    let sum =
      List.fold_left
        (fun a (ri : Engine.Sink.round_info) -> a + ri.counts.(c))
        0 (Trace.rounds tr)
    in
    let ctx = Printf.sprintf "%s %s: " what (Engine.Sink.key c) in
    Alcotest.(check int) (ctx ^ "metrics total") sum m.totals.(c);
    Alcotest.(check int) (ctx ^ "root span") sum st.s_counts.(c);
    Alcotest.(check int) (ctx ^ "span report") sum rep.r_counts.(c)
  done;
  m.totals

let expect_nonzero what totals counters =
  List.iter
    (fun c ->
      if totals.(c) = 0 then
        Alcotest.failf "%s: the run exercised no %s" what (Engine.Sink.key c))
    counters

(* Every node floods its running maximum for [rounds] rounds, then halts. *)
let max_gossip ~rounds : (int * bool) Engine.ealgorithm =
  {
    Engine.einit = (fun _ v -> (v, false));
    estep =
      (fun g ~round ~node (best, _) inbox em ->
        let best = ref best in
        for i = 0 to Engine.Inbox.length inbox - 1 do
          best := max !best (Codec.get (Engine.Inbox.read inbox i))
        done;
        let best = !best in
        if round >= rounds then (best, true)
        else begin
          Array.iter (fun (u, _) -> Engine.Emit.frame1 em ~dst:u best) (Graph.neighbors g node);
          (best, false)
        end);
    ehalted = snd;
    ewake = (fun _ -> Engine.Always);
  }

let test_counter_sums_churn_corrupt () =
  (* a 9-cycle plus a reserved node 9 (wired to 0 and 4) and a reserved
     chord (2,6): the whole churn alphabet under wire corruption *)
  let g =
    Graph.of_edges ~n:10
      (List.init 9 (fun i -> (i, (i + 1) mod 9, i + 1))
      @ [ (0, 9, 10); (4, 9, 11); (2, 6, 12) ])
  in
  let e = Engine.create g in
  let churn =
    Engine.Churn.compile e
      [
        Engine.Churn.Arrive { node = 9; at = 2 };
        Engine.Churn.Crash { node = 5; at = 3 };
        Engine.Churn.Edge_add { src = 2; dst = 6; at = 4 };
        Engine.Churn.Edge_add { src = 6; dst = 2; at = 4 };
        Engine.Churn.Depart { node = 7; at = 5 };
      ]
  in
  let corrupt = Engine.Corrupt.make ~flip:1e-2 ~seed:5 () in
  let totals =
    check_counter_sums "churn+corrupt" (fun sink ->
        ignore
          (Engine.exec_emit ~max_words:1 ~sink ~churn ~corrupt e
             (max_gossip ~rounds:12)))
  in
  expect_nonzero "churn+corrupt" totals
    Engine.Sink.[ crashed; arrived; departed; inserted; corrupted; dropped ]

let test_counter_sums_async () =
  let g = Generators.gnp_connected ~rng:(Rng.create 51) ~n:16 ~p:0.25 in
  let corrupt = Engine.Corrupt.make ~flip:1e-2 ~seed:7 () in
  let faults = Faults.lossy ~drop:0.2 ~duplicate:0.1 ~corrupt ~seed:9 () in
  let totals =
    check_counter_sums "async" (fun sink ->
        ignore
          (Async.run_reliable ~rng:(Rng.create 12) ~faults ~sink
             ~max_words:Kdom.Leader.max_words g (Kdom.Leader.algorithm g)))
  in
  expect_nonzero "async" totals
    Engine.Sink.[ dropped; duplicated; retransmits; corrupted ]

(* ------------------------------------------------------------------ *)
(* Golden files: the schema is frozen — any change to the emitted shape
   must bump Trace.schema_version and regenerate these
   (KDOM_GOLDEN_UPDATE=/abs/path/to/test/golden dune exec
   test/test_trace.exe -- test golden). *)

let golden_graph () = Generators.random_tree ~rng:(Rng.create 42) 8

let golden_sync () =
  let tr = Trace.create () in
  ignore (Kdom.Diam_dom.run ~trace:tr (golden_graph ()) ~root:0 ~k:2);
  tr

let golden_faulty () =
  let g = golden_graph () in
  let tr = Trace.create () in
  let faults = Faults.lossy ~drop:0.2 ~duplicate:0.2 ~seed:7 () in
  let _, (frep : Async.fault_report) =
    Trace.span tr "bfs.reliable" (fun () ->
        Async.run_reliable ~rng:(Rng.create 13) ~faults ~max_delay:1.0
          ~max_words:Kdom.Bfs_tree.max_words ~sink:(Trace.sink tr) g
          (Kdom.Bfs_tree.algorithm g ~root:0))
  in
  Trace.note tr "frames" frep.frames;
  Trace.note tr "retransmits" frep.retransmits;
  Trace.note tr "timeouts" frep.timeouts;
  Trace.note tr "dropped" frep.dropped;
  Trace.note tr "duplicated" frep.duplicated;
  tr

(* a serving run: exercises the v1.5 [hist] records (serve.latency,
   serve.hops, serve.edge_load) alongside notes and spans *)
let golden_serve () =
  let g = golden_graph () in
  let plan =
    Kdom.Cluster.plan_of_partition
      (Kdom.Dom_partition.partition g (Kdom.Dom_partition.run g ~k:2))
  in
  let requests =
    Kdom.Workload.generate g plan Kdom.Workload.uniform ~seed:3 ~requests:12
      ~window:4
  in
  let cfg =
    { Serve.plan; requests; horizon = 64; retry_after = 32; retries = 1 }
  in
  let tr = Trace.create () in
  ignore (Serve.run ~trace:tr (Engine.create g) cfg);
  tr

let golden_cases =
  [
    ("trace_sync.jsonl", golden_sync);
    ("trace_faulty.jsonl", golden_faulty);
    ("trace_serve.jsonl", golden_serve);
  ]

(* dune runtest runs in test/, dune exec in the project root *)
let golden_path file =
  let candidates =
    [ Filename.concat "golden" file; Filename.concat "test/golden" file ]
  in
  (try List.find Sys.file_exists candidates with Not_found -> List.hd candidates)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden () =
  match Sys.getenv_opt "KDOM_GOLDEN_UPDATE" with
  | Some dir ->
    List.iter
      (fun (file, mk) ->
        let oc = open_out_bin (Filename.concat dir file) in
        output_string oc (Trace.to_jsonl (mk ()));
        close_out oc)
      golden_cases
  | None ->
    List.iter
      (fun (file, mk) ->
        let expected = read_file (golden_path file) in
        let got = Trace.to_jsonl (mk ()) in
        if got <> expected then
          Alcotest.failf
            "%s: trace output diverged from the golden schema file — if the \
             schema changed on purpose, bump Trace.schema_version and \
             regenerate (see comment above test_golden)"
            file;
        match Trace.validate_lines (lines_of expected) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "golden %s no longer validates: %s" file e)
      golden_cases

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "trace"
    [
      ( "spans",
        [
          Alcotest.test_case "clock and nesting" `Quick test_clock_and_nesting;
          Alcotest.test_case "closes on exception" `Quick
            test_span_closes_on_exception;
          Alcotest.test_case "argument validation" `Quick
            test_argument_validation;
          Alcotest.test_case "observe keeps the zero-dispatch path" `Quick
            test_observe_zero_dispatch;
          Alcotest.test_case "synthetic spans and tracks" `Quick
            test_synthetic_spans_and_tracks;
        ] );
      ( "engine",
        [
          Alcotest.test_case "engine rounds drive the clock" `Quick
            test_engine_rounds_drive_clock;
          Alcotest.test_case "metrics helpers" `Quick test_metrics_helpers;
        ] );
      ( "paper bounds",
        [
          Alcotest.test_case "SimpleMST phases (Lemma 4.3)" `Quick
            test_bound_simple_mst_phases;
          Alcotest.test_case "message-level SimpleMST phases" `Quick
            test_bound_simple_mst_congest_phases;
          Alcotest.test_case "DiamDOM total and censuses (Lemma 2.3)" `Quick
            test_bound_diam_dom;
          Alcotest.test_case "pipelined census offsets" `Quick
            test_bound_pipelined_census_offsets;
          Alcotest.test_case "Fast_MST composition (Theorem 5.6)" `Quick
            test_composite_fast_mst;
        ] );
      ( "export",
        [
          Alcotest.test_case "JSONL validates" `Quick test_jsonl_validates;
          Alcotest.test_case "validator rejects malformed input" `Quick
            test_validator_rejects;
          Alcotest.test_case "Chrome export shape" `Quick
            test_chrome_export_shape;
          Alcotest.test_case "Sink.jsonl round lines validate" `Quick
            test_sink_jsonl_rounds_validate;
        ] );
      ( "counters",
        [
          Alcotest.test_case "sums agree under churn and corruption" `Quick
            test_counter_sums_churn_corrupt;
          Alcotest.test_case "sums agree under async faults" `Quick
            test_counter_sums_async;
        ] );
      ( "golden",
        [ Alcotest.test_case "schema golden files" `Quick test_golden ] );
    ]
