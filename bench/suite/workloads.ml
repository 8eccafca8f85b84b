(* The six workloads.  Each builds its inputs from the seed during set-up,
   then offers a timed body (the monolithic library call, tracing off),
   the oracle for the body's output, and a traced run that times the
   layers from outside. *)

open Kdom_graph
open Kdom_congest
open Kdom

type metric = string * string * float  (* name, unit, value *)

type outcome = {
  exact : metric list;  (* simulated quantities: identical on every rep *)
  per_s : metric list;  (* counts, reported divided by the rep's wall time *)
  check : unit -> Oracle.failure list;  (* runs outside the timed body *)
}

type traced = {
  layers : metric list;  (* per-layer metrics *)
  traced_exact : metric list;  (* end-to-end metrics only the traced run measures *)
  traced_wall : float;  (* wall time of the traced equivalent of one body *)
  mismatches : Oracle.failure list;  (* traced output differs from the body's *)
}

type case = { body : unit -> outcome; traced : Spans.t -> traced }

type t = { name : string; setup : smoke:bool -> seed:int -> Spans.t -> case }

let expect check ok detail = if ok then [] else [ { Oracle.check; detail } ]
let now = Unix.gettimeofday

let dom_ratio ~n ~k d =
  float (List.length d) /. float (max 1 (n / (k + 1)))

let ( // ) a b = if b = 0. then 0. else a /. b

(* Per-layer metrics common to the two pipeline decompositions. *)
let pipeline_layers sp =
  let s name = Spans.self_time sp name and calls name = float (Spans.calls sp name) in
  [
    ("simple_mst.s", "s", s "simple_mst");
    ("dom_partition.s", "s", s "dom_partition");
    ("dom_partition.calls", "count", calls "dom_partition");
    ("cluster.s", "s", s "cluster");
    ("diam_dom.s", "s", s "diam_dom");
    ("diam_dom.calls", "count", calls "diam_dom");
    ("diam_dom.us_per_call", "us", 1e6 *. s "diam_dom" // calls "diam_dom");
    ("glue.s", "s", s "fast_mst" +. s "fastdom_g" +. s "fastdom_t");
    ("trace.report_s", "s", s "trace.report");
  ]

(* mst-grid: the paper's headline pipeline, FastMST with its own leader
   election (Theorem 5.6), fully self-contained. *)
let mst_grid =
  let setup ~smoke ~seed sp =
    let side = if smoke then 12 else 100 in
    let g =
      Spans.span sp "generators" (fun () ->
          Generators.grid ~rng:(Rng.create seed) ~rows:side ~cols:side)
    in
    let n = Graph.n g in
    let last = ref None in
    let body () =
      last := None;
      let r = Fast_mst.run_elected g in
      last := Some r;
      {
        exact =
          [ ("rounds", "rounds", float r.rounds); ("dom_ratio", "ratio", dom_ratio ~n ~k:r.k r.dominating) ];
        per_s = [];
        check =
          (fun () ->
            expect "mst" (Mst.same_edge_set r.mst (Mst.kruskal g)) "MST differs from Kruskal"
            @ expect "pipeline-stalls" (r.pipeline.stalls = 0)
                (Printf.sprintf "%d pipeline stalls (Lemma 5.3 says 0)" r.pipeline.stalls));
      }
    in
    let traced sp =
      let c = Decompose.counts () in
      let d = Decompose.fast_mst_elected sp c g in
      let r = Option.get !last in
      let minor name = Option.value ~default:0. (Hashtbl.find_opt c.minor name) in
      let leader_msgs = float d.leader.stats.messages in
      let pipeline_msgs = float d.pipeline.upcast_stats.messages in
      {
        layers =
          [
            ("leader.s", "s", Spans.self_time sp "leader");
            ("leader.messages", "msg", leader_msgs);
            ("leader.minor_words_per_msg", "word/msg", minor "leader" // leader_msgs);
            ("bfs_tree.s", "s", Spans.self_time sp "bfs_tree");
            ("simple_mst.fragments", "count", float (List.length d.dom.forest.fragments));
            ("pipeline.s", "s", Spans.self_time sp "pipeline");
            ("pipeline.messages", "msg", pipeline_msgs);
            ("pipeline.minor_words_per_msg", "word/msg", minor "pipeline" // pipeline_msgs);
            ("pipeline.stalls", "count", float d.pipeline.stalls);
          ]
          @ pipeline_layers sp;
        traced_exact =
          [ ("messages", "msg", float c.delivered); ("bits", "bit", float c.bits) ];
        traced_wall = Spans.covered sp;
        mismatches =
          expect "traced-mst" (Mst.same_edge_set d.mst r.mst) "re-composed MST differs"
          @ expect "traced-dominating" (d.dom.dominating = r.dominating)
              "re-composed dominating set differs"
          @ expect "traced-rounds" (d.mst_rounds = r.rounds)
              (Printf.sprintf "re-composed rounds %d, monolithic %d" d.mst_rounds r.rounds);
      }
    in
    { body; traced }
  in
  { name = "mst-grid"; setup }

(* dom-pa: FastDOM_G (Theorem 4.4) on a power-law graph.  Time goes to
   SimpleMST, DOM_Partition and hundreds of small DiamDOM engine runs whose
   per-run set-up dominates.  No Leader, Pipeline, Serve or Async runs
   here. *)
let dom_pa =
  let k = 8 in
  let setup ~smoke ~seed sp =
    let n = if smoke then 2_000 else 60_000 in
    let g =
      Spans.span sp "generators" (fun () ->
          Generators.preferential_attachment ~rng:(Rng.create seed) ~n ~m:2)
    in
    let last = ref None in
    let body () =
      last := None;
      let r = Fastdom_graph.run g ~k in
      last := Some r;
      {
        exact =
          [ ("rounds", "rounds", float r.rounds); ("dom_ratio", "ratio", dom_ratio ~n ~k r.dominating) ];
        per_s = [];
        check =
          (fun () ->
            Oracle.k_domination g ~k r.dominating
            @ Oracle.size_within ~n ~k ~ceil:true r.dominating);
      }
    in
    let traced sp =
      let c = Decompose.counts () in
      let d = Decompose.fastdom_graph sp c g ~k in
      let r = Option.get !last in
      {
        layers =
          ("simple_mst.fragments", "count", float (List.length d.forest.fragments))
          :: pipeline_layers sp;
        traced_exact =
          [ ("messages", "msg", float c.delivered); ("bits", "bit", float c.bits) ];
        traced_wall = Spans.covered sp;
        mismatches =
          expect "traced-dominating" (d.dominating = r.dominating)
            "re-composed dominating set differs"
          @ expect "traced-rounds" (d.rounds = r.rounds)
              (Printf.sprintf "re-composed rounds %d, monolithic %d" d.rounds r.rounds);
      }
    in
    { body; traced }
  in
  { name = "dom-pa"; setup }

(* flood-grid: a one-word broadcast flood on the emit path with the CRC
   guard on.  The algorithm does almost nothing, so the time is the
   engine's round loop and the codec: the control for changes that should
   not touch the engine. *)
let flood_rounds = 300

let flood : int Engine.ealgorithm =
  {
    Engine.einit = (fun _ _ -> 0);
    estep =
      (fun _ ~round ~node:_ _ _ em ->
        if round <= flood_rounds then Engine.Emit.broadcast1 em round;
        round);
    ehalted = (fun st -> st > flood_rounds);
    ewake = Engine.always;
  }

let flood_grid =
  let setup ~smoke ~seed sp =
    let side = if smoke then 20 else 100 in
    let g =
      Spans.span sp "generators" (fun () ->
          Generators.grid ~rng:(Rng.create seed) ~rows:side ~cols:side)
    in
    let e = Spans.span sp "engine.create" (fun () -> Engine.create g) in
    (* every node broadcasts once in each of the rounds 0 .. flood_rounds *)
    let expected = 2 * Graph.m g * (flood_rounds + 1) in
    let body () =
      let states, st = Engine.exec_emit ~guard:true e flood in
      {
        exact = [ ("rounds", "rounds", float st.rounds); ("messages", "msg", float st.messages) ];
        per_s = [ ("msgs_per_s", "msg/s", float st.messages) ];
        check =
          (fun () ->
            expect "flood-messages" (st.messages = expected)
              (Printf.sprintf "%d messages, expected %d" st.messages expected)
            @ expect "flood-states"
                (Array.for_all (fun s -> s = flood_rounds + 1) states)
                "a node did not finish the flood");
      }
    in
    let traced sp =
      let msgs = float expected in
      let timed name guard =
        Spans.span sp name (fun () ->
            let w0 = Gc.minor_words () in
            let t0 = now () in
            ignore (Engine.exec_emit ~guard e flood);
            (now () -. t0, Gc.minor_words () -. w0))
      in
      (* guard on and off, interleaved, so the difference is the codec's
         guard cost under the same machine conditions *)
      let pairs = List.init 5 (fun _ -> (timed "engine" true, timed "engine.noguard" false)) in
      let med f = Samples.median_of (List.map f pairs) in
      let guard = med (fun ((t, _), _) -> t) and noguard = med (fun (_, (t, _)) -> t) in
      let minor = med (fun ((_, w), _) -> w) in
      let tr = Trace.create () in
      let t0 = now () in
      let traced_st, traced_minor =
        Spans.span sp "trace" (fun () ->
            let w0 = Gc.minor_words () in
            let _, st = Engine.exec_emit ~guard:true ~sink:(Trace.sink tr) e flood in
            (st, Gc.minor_words () -. w0))
      in
      let traced_wall = now () -. t0 in
      let m = Spans.span sp "trace.report" (fun () -> Metrics.report tr) in
      {
        layers =
          [
            ("engine.ns_per_msg", "ns/msg", 1e9 *. guard /. msgs);
            ("engine.rounds_per_s", "round/s", float traced_st.rounds /. guard);
            ("engine.minor_words_per_msg", "word/msg", minor /. msgs);
            ("codec.guard_ns_per_msg", "ns/msg", 1e9 *. (guard -. noguard) /. msgs);
            ("trace.minor_words_per_msg", "word/msg", traced_minor /. msgs);
            ("trace.report_s", "s", Spans.self_time sp "trace.report");
          ];
        traced_exact = [ ("bits", "bit", float m.bits) ];
        traced_wall;
        mismatches =
          expect "traced-messages" (traced_st.messages = expected) "traced flood differs";
      }
    in
    { body; traced }
  in
  { name = "flood-grid"; setup }

(* serve-*: the serving layer on a grid, through a FastDOM_G k=4 cluster
   forest built in set-up.  Requests are an open loop in simulated time:
   injection rounds are fixed by the generator whatever the queues do, and
   latency counts from the scheduled injection round. *)
let serve_workload ~name mix =
  let setup ~smoke ~seed sp =
    let side = if smoke then 24 else 128 and requests = if smoke then 1_000 else 20_000 in
    let window = 32 in
    let rng = Rng.create seed in
    let g =
      Spans.span sp "generators" (fun () ->
          Generators.grid ~rng:(Rng.split rng) ~rows:side ~cols:side)
    in
    let plan =
      Spans.span sp "plan" (fun () ->
          Cluster.plan_of_partition (Fastdom_graph.run g ~k:4).partition)
    in
    (* Under a hotspot, a hottest origin that is its own dominator answers
       locally and no queue forms (3 seeds in 10 at this size), which would
       halve the run time on those seeds; such a draw is replaced by the
       next one from the seed, so every seed drains a hot queue. *)
    let rec draw () =
      let reqs = Workload.generate g plan mix ~seed:(Rng.int rng 1_000_000_000) ~requests ~window in
      let per = Array.make (Graph.n g) 0 in
      Array.iter (fun (r : Serve.request) -> per.(r.origin) <- per.(r.origin) + 1) reqs;
      let hottest = ref 0 in
      Array.iteri (fun v c -> if c > per.(!hottest) then hottest := v) per;
      if mix.zipf > 0. && plan.depth.(!hottest) = 0 then draw () else (reqs, per.(!hottest))
    in
    let reqs, batch = Spans.span sp "workload.generate" draw in
    let e = Spans.span sp "engine.create" (fun () -> Engine.create g) in
    (* a hot origin drains one frame per round, so the horizon and the
       retry timer must cover its whole batch *)
    let dmax = Array.fold_left max 0 plan.Repair.depth in
    let retry_after = (4 * dmax) + 8 + batch and retries = 2 in
    let horizon = window + batch + (4 * dmax) + ((retries + 1) * retry_after) + 32 in
    let cfg = { Serve.plan; requests = reqs; horizon; retry_after; retries } in
    let last = ref None in
    let body () =
      last := None;
      let states, st = Serve.run e cfg in
      let rep = Serve.decode cfg states in
      last := Some rep;
      {
        exact =
          [
            ("rounds", "rounds", float st.rounds);
            ("messages", "msg", float st.messages);
            ("lat_p50_rounds", "rounds", float (Serve.percentile rep.latencies 50));
            ("lat_p99_rounds", "rounds", float (Serve.percentile rep.latencies 99));
          ];
        per_s = [ ("req_per_s", "req/s", float (rep.answered + rep.rejected)) ];
        check =
          (fun () ->
            Serve.check g cfg rep
            @ expect "serve-lost" (rep.lost = 0) (Printf.sprintf "%d requests lost" rep.lost));
      }
    in
    let traced sp =
      let tr = Trace.create () in
      let t0 = now () in
      let rep, st =
        Spans.span sp "serve" (fun () ->
            let states, st = Serve.run ~trace:tr e cfg in
            (Serve.decode cfg states, st))
      in
      let traced_wall = now () -. t0 in
      let m = Spans.span sp "trace.report" (fun () -> Metrics.report tr) in
      let r = Option.get !last in
      let serve_s = Spans.self_time sp "serve" in
      {
        layers =
          [
            ("serve.s", "s", serve_s);
            ("serve.ns_per_round", "ns/round", 1e9 *. serve_s /. float st.rounds);
            ("serve.frames_per_req", "frame/req", float rep.frames /. float requests);
            ("serve.queue_peak", "frame", float rep.queue_peak);
            ("trace.report_s", "s", Spans.self_time sp "trace.report");
          ];
        traced_exact = [ ("bits", "bit", float m.bits) ];
        traced_wall;
        mismatches =
          expect "traced-serve"
            (rep.frames = r.frames && rep.latencies = r.latencies)
            "traced serving run differs";
      }
    in
    { body; traced }
  in
  { name; setup }

(* Uniform origins keep queues short (peak 4-5 frames): the cost is per
   frame. *)
let serve_uniform = serve_workload ~name:"serve-uniform" Workload.uniform

(* Zipf 1.2 origins pile thousands of requests on a few nodes: a long,
   mostly idle queue drain that stresses per-round scheduling and
   queueing rather than per-frame cost. *)
let serve_hotspot = serve_workload ~name:"serve-hotspot" Workload.hotspot

(* async-lossy: the paper's Initialize (BFS tree) under the
   alpha-synchronizer over lossy, duplicating, reordering links.  Only
   Async and Faults run here. *)
let async_lossy =
  let setup ~smoke ~seed sp =
    let side = if smoke then 6 else 20 in
    let rng = Rng.create seed in
    let g =
      Spans.span sp "generators" (fun () ->
          Generators.grid ~rng:(Rng.split rng) ~rows:side ~cols:side)
    in
    let faults =
      Faults.lossy ~drop:0.1 ~duplicate:0.05 ~reorder:true ~seed:(Rng.int rng 1_000_000_000) ()
    in
    let delay_seed = Rng.int rng 1_000_000_000 in
    let max_words = Bfs_tree.max_words in
    let run ?sink () =
      Async.run_reliable ~rng:(Rng.create delay_seed) ~faults ~max_words ?sink g
        (Bfs_tree.algorithm g ~root:0)
    in
    let reference = lazy (fst (Runtime.run ~max_words g (Bfs_tree.algorithm g ~root:0))) in
    let last = ref None in
    let body () =
      last := None;
      let states, fr = run () in
      last := Some states;
      let r = fr.report in
      {
        exact =
          [
            ("rounds", "rounds", float r.pulses);
            ("messages", "msg", float (r.alg_messages + r.sync_messages));
          ];
        per_s = [ ("frames_per_s", "frame/s", float fr.frames) ];
        check =
          (fun () ->
            expect "async-states" (states = Lazy.force reference)
              "final states differ from the synchronous run");
      }
    in
    let traced sp =
      let tr = Trace.create () in
      let t0 = now () in
      let (states, fr), minor =
        Spans.span sp "async" (fun () ->
            let w0 = Gc.minor_words () in
            let r = run ~sink:(Trace.sink tr) () in
            (r, Gc.minor_words () -. w0))
      in
      let traced_wall = now () -. t0 in
      let m = Spans.span sp "trace.report" (fun () -> Metrics.report tr) in
      let logical = float (fr.report.alg_messages + fr.report.sync_messages) in
      {
        layers =
          [
            ("async.s", "s", Spans.self_time sp "async");
            ("async.frames", "frame", float fr.frames);
            ("async.retransmits", "frame", float fr.retransmits);
            ("async.frames_per_logical", "frame/msg", float fr.frames /. logical);
            ("async.minor_words_per_frame", "word/frame", minor /. float fr.frames);
            ("faults.dropped", "frame", float fr.dropped);
            ("faults.duplicated", "frame", float fr.duplicated);
            ("trace.report_s", "s", Spans.self_time sp "trace.report");
          ];
        traced_exact = [ ("bits", "bit", float m.bits) ];
        traced_wall;
        mismatches =
          expect "traced-async" (Some states = !last) "traced asynchronous run differs";
      }
    in
    { body; traced }
  in
  { name = "async-lossy"; setup }

let all = [ mst_grid; dom_pa; flood_grid; serve_uniform; serve_hotspot; async_lossy ]
let find name = List.find_opt (fun w -> w.name = name) all
