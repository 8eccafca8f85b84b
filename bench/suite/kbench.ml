(* kbench: one end-to-end benchmark for the paper's pipelines, the serving
   layer and the asynchronous layer, with a per-layer split.  See
   README.md in this directory for the metrics, workloads and bounds.

   Load comes from this single process on one OCaml domain, with no
   threads; [all] and [repeat] run one child process at a time. *)

open Kdom_congest

let usage =
  {|usage:
  kbench all [--seed S] [--seconds T] [--smoke] [--trace FILE]
  kbench run WORKLOAD [--seed S] [--seconds T] [--smoke] [--trace FILE]
  kbench repeat [--seconds T]
  kbench measure --workload WORKLOAD --seed S --seconds T --trace 0|1
workloads: mst-grid dom-pa flood-grid serve-uniform serve-hotspot async-lossy
|}

let now = Unix.gettimeofday
let epoch = now ()
let default_seconds = 18.

(* How much worse a median may get before it counts as a regression:
   [Timed (share, floor)] allows [max (share * median) floor]; [Exact]
   metrics are simulated and must not change at all.  Timed shares are 25%
   because whole runs on a shared 2-vCPU virtual machine drift by 5-15%
   (README.md, "Noise"). *)
type bound = Timed of float * float | Exact

let end_to_end =
  [
    ("setup_s", Timed (0.25, 0.05));
    ("wall_s", Timed (0.25, 0.));
    ("msgs_per_s", Timed (0.25, 0.));
    ("req_per_s", Timed (0.25, 0.));
    ("frames_per_s", Timed (0.25, 0.));
    ("heap_peak_mb", Timed (0.25, 0.));
    ("rounds", Exact);
    ("messages", Exact);
    ("bits", Exact);
    ("dom_ratio", Exact);
    ("lat_p50_rounds", Exact);
    ("lat_p99_rounds", Exact);
    ("fail_frac", Exact);
  ]

(* The one-line summary of [measure]: the end-to-end metrics every
   workload has, or with the trace on, every per-layer metric (0 where a
   layer does not run on the workload) plus the end-to-end metrics that
   only some workloads have. *)
let summary_end_to_end = [ "setup_s"; "wall_s"; "heap_peak_mb"; "rounds" ]

let summary_per_layer =
  [
    ("generators.s", "s"); ("engine.create_s", "s"); ("plan.s", "s");
    ("workload.generate_s", "s");
    ("leader.s", "s"); ("leader.messages", "msg"); ("leader.minor_words_per_msg", "word/msg");
    ("bfs_tree.s", "s");
    ("simple_mst.s", "s"); ("simple_mst.fragments", "count");
    ("dom_partition.s", "s"); ("dom_partition.calls", "count");
    ("cluster.s", "s");
    ("diam_dom.s", "s"); ("diam_dom.calls", "count"); ("diam_dom.us_per_call", "us");
    ("pipeline.s", "s"); ("pipeline.messages", "msg");
    ("pipeline.minor_words_per_msg", "word/msg"); ("pipeline.stalls", "count");
    ("glue.s", "s");
    ("engine.ns_per_msg", "ns/msg"); ("engine.rounds_per_s", "round/s");
    ("engine.minor_words_per_msg", "word/msg");
    ("codec.guard_ns_per_msg", "ns/msg");
    ("serve.s", "s"); ("serve.ns_per_round", "ns/round"); ("serve.frames_per_req", "frame/req");
    ("serve.queue_peak", "frame");
    ("async.s", "s"); ("async.frames", "frame"); ("async.retransmits", "frame");
    ("async.frames_per_logical", "frame/msg"); ("async.minor_words_per_frame", "word/frame");
    ("faults.dropped", "frame"); ("faults.duplicated", "frame");
    ("gc.minor_words", "word"); ("gc.promoted_words", "word"); ("gc.major_collections", "count");
    ("oracle.s", "s");
    ("trace.overhead_pct", "%"); ("trace.report_s", "s"); ("trace.minor_words_per_msg", "word/msg");
    ("messages", "msg"); ("bits", "bit"); ("msgs_per_s", "msg/s"); ("req_per_s", "req/s");
    ("frames_per_s", "frame/s"); ("dom_ratio", "ratio"); ("lat_p50_rounds", "rounds");
    ("lat_p99_rounds", "rounds");
  ]

(* Set-up spans and the metric each one feeds. *)
let setup_layers =
  [
    ("generators", "generators.s");
    ("engine.create", "engine.create_s");
    ("plan", "plan.s");
    ("workload.generate", "workload.generate_s");
  ]

type result = { samples : Samples.t; reps : int; attempted : int; failed : int }

let write_chrome file events =
  let oc = open_out file in
  output_string oc "{\"traceEvents\": [\n";
  output_string oc (String.concat ",\n" events);
  output_string oc "\n]}\n";
  close_out oc

(* Set up several times (median set-up time), warm up once, then time
   reps of the body until [seconds] have passed, checking every output
   outside the timed region; optionally add the traced run. *)
let run_workload ~seed ~seconds ~smoke ~traced ~trace_file (w : Workloads.t) =
  let index = Option.get (List.find_index (fun (x : Workloads.t) -> x.name = w.name) Workloads.all) in
  let s = Samples.create () in
  let add (name, unit, v) = Samples.add s name ~unit v in
  let attempted = ref 0 and failed = ref 0 in
  let judge failures =
    incr attempted;
    if failures <> [] then begin
      incr failed;
      prerr_endline (w.name ^ ": " ^ Oracle.describe failures)
    end
  in
  let check (o : Workloads.outcome) =
    let t0 = now () in
    let f = o.check () in
    add ("oracle.s", "s", now () -. t0);
    judge f
  in
  (* Set-up costs 1 ms to 0.5 s depending on the workload: repeat it at
     least 3 times and for 1 s, so its median is steady.  Every set-up and
     every rep starts from a collected heap, so neither pays for the
     garbage of the one before and the heap peak does not depend on how
     many ran. *)
  let case = ref None and setup_spans = ref [] and setups = ref 0 in
  let setup_start = now () in
  let enough () =
    smoke || (!setups >= 3 && (now () -. setup_start >= 1. || !setups >= 100))
  in
  while !setups = 0 || not (enough ()) do
    incr setups;
    case := None;
    Gc.full_major ();
    let sp = Spans.create ~workload:index in
    let t0 = now () in
    let c = w.setup ~smoke ~seed sp in
    add ("setup_s", "s", now () -. t0);
    List.iter
      (fun (span, metric) ->
        if Spans.calls sp span > 0 then add (metric, "s", Spans.self_time sp span))
      setup_layers;
    case := Some c;
    setup_spans := Spans.chrome_events ~epoch sp
  done;
  let case = Option.get !case in
  Gc.full_major ();
  check (case.body ());
  let reps = ref 0 and first = ref None in
  let t_start = now () in
  while !reps < (if smoke then 2 else 3) || now () -. t_start < seconds do
    Gc.full_major ();
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let o = case.body () in
    let dt = now () -. t0 in
    let g1 = Gc.quick_stat () in
    add ("wall_s", "s", dt);
    add ("gc.minor_words", "word", g1.minor_words -. g0.minor_words);
    add ("gc.promoted_words", "word", g1.promoted_words -. g0.promoted_words);
    add ("gc.major_collections", "count", float (g1.major_collections - g0.major_collections));
    List.iter (fun (name, unit, c) -> add (name, unit, c /. dt)) o.per_s;
    List.iter add o.exact;
    (match !first with
    | None -> first := Some o.exact
    | Some e ->
      judge (Workloads.expect "repeatable" (e = o.exact) "a simulated metric changed between reps"));
    check o;
    incr reps
  done;
  (* the heap peak of the workload itself, before the traced run adds the
     trace's own buffers *)
  add
    ( "heap_peak_mb",
      "MB",
      float (Gc.quick_stat ()).top_heap_words *. float (Sys.word_size / 8) /. 1e6 );
  if traced then begin
    Gc.full_major ();
    let sp = Spans.create ~workload:index in
    let t0 = now () in
    let tr = case.traced sp in
    let wall = now () -. t0 in
    List.iter add tr.layers;
    List.iter add tr.traced_exact;
    judge tr.mismatches;
    (* self times must add up to the traced run; the 5 ms floor covers
       timer and GC noise on millisecond smoke runs *)
    judge
      (Workloads.expect "span-accounting"
         (Float.abs (Spans.covered sp -. wall) <= Float.max (0.05 *. wall) 0.005)
         (Printf.sprintf "spans cover %.3f s of a %.3f s traced run" (Spans.covered sp) wall));
    let untraced = Samples.median s "wall_s" in
    add ("trace.overhead_pct", "%", 100. *. (tr.traced_wall -. untraced) /. untraced);
    Option.iter
      (fun file -> write_chrome file (!setup_spans @ Spans.chrome_events ~epoch sp))
      trace_file
  end;
  add ("fail_frac", "fraction", float !failed /. float !attempted);
  { samples = s; reps = !reps; attempted = !attempted; failed = !failed }

let result_json (w : Workloads.t) ~seed r =
  Json.Obj
    [
      ("workload", Str w.name);
      ("seed", Num (float seed));
      ("reps", Num (float r.reps));
      ("metrics", Obj (List.map (fun n -> (n, Samples.summary r.samples n)) (Samples.names r.samples)));
    ]

let summary_json r ~trace =
  let value name unit =
    let v = if Samples.mem r.samples name then Samples.median r.samples name else 0. in
    let unit = if Samples.mem r.samples name then Samples.unit_of r.samples name else unit in
    (name, Json.Obj [ ("value", Num v); ("unit", Str unit) ])
  in
  let metrics =
    if trace then List.map (fun (n, u) -> value n u) summary_per_layer
    else List.map (fun n -> value n "") summary_end_to_end
  in
  Json.Obj
    [
      ("correct", Bool (r.failed = 0));
      ("attempted", Num (float r.attempted));
      ("failed", Num (float r.failed));
      ("metrics", Obj metrics);
    ]

(* ---------------------------------------------------------------- *)
(* Child processes for [all] and [repeat]. *)

let read_lines ic =
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  go []

(* Run one workload in a fresh child process, so it gets a clean heap;
   echo its result line and return whether it passed, with the line. *)
let run_child ~seed ~seconds ~smoke ~trace (w : Workloads.t) =
  let exe = Sys.executable_name in
  let args =
    [ exe; "run"; w.name; "--seed"; string_of_int seed ]
    @ (match seconds with Some t -> [ "--seconds"; Json.num t ] | None -> [])
    @ (if smoke then [ "--smoke" ] else [])
    @ match trace with Some p -> [ "--trace"; p ] | None -> []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let lines = read_lines ic in
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  List.iter print_endline lines;
  let json =
    match List.rev lines with
    | last :: _ -> (try Some (Json.of_string last) with _ -> None)
    | [] -> None
  in
  (ok && json <> None, json)

(* [all]: every workload in its own child, one after another.  With a
   trace file, each child writes a part and the parts' events are merged
   into the one file. *)
let run_all ~seed ~seconds ~smoke ~trace =
  let part i = Option.map (fun f -> Printf.sprintf "%s.%d" f i) trace in
  let oks =
    List.mapi (fun i w -> fst (run_child ~seed ~seconds ~smoke ~trace:(part i) w)) Workloads.all
  in
  Option.iter
    (fun file ->
      let events =
        List.concat
          (List.mapi
             (fun i _ ->
               let p = Option.get (part i) in
               if not (Sys.file_exists p) then []
               else begin
                 let ic = open_in p in
                 let ls = read_lines ic in
                 close_in ic;
                 Sys.remove p;
                 List.filter_map
                   (fun l ->
                     if String.starts_with ~prefix:"{\"name\":" l then
                       Some (if String.ends_with ~suffix:"," l then String.sub l 0 (String.length l - 1) else l)
                     else None)
                   ls
               end)
             Workloads.all)
      in
      write_chrome file events)
    trace;
  List.for_all Fun.id oks

(* ---------------------------------------------------------------- *)
(* [repeat]: two sets on the development seed, one on the held-out seed. *)

let metric_of json name =
  match json with
  | None -> None
  | Some j -> (
    match List.assoc_opt name (Json.to_obj (Json.field "metrics" j)) with
    | None -> None
    | Some m ->
      Some
        ( Json.to_num (Json.field "median" m),
          Json.to_num (Json.field "q1" m),
          Json.to_num (Json.field "q3" m),
          Json.to_str (Json.field "unit" m) ))

let repeat ~seconds =
  let problems = ref [] in
  let buf = Buffer.create 8192 in
  let pr fmt = Printf.bprintf buf fmt in
  let tm = Unix.gmtime (now ()) in
  pr "# kbench baseline\n\n";
  pr "Written by `kbench repeat` on %04d-%02d-%02d: sets A and B on the development seed 1, \
      set C on the held-out seed 2, %s s of timed body per workload, OCaml %s, %d hardware threads. \
      Each run is a fresh process; the A, B and C runs of one workload follow each other, so \
      slow drift of the host separates them as little as possible.\n\n"
    (tm.tm_year + 1900) (tm.tm_mon + 1) tm.tm_mday
    (Json.num seconds)
    Sys.ocaml_version (Domain.recommended_domain_count ());
  pr "Each cell is the median over the run's samples, with its quartiles; fractions to 4 \
      significant digits (the JSON lines carry every digit). A vs B: exact metrics must be \
      identical, timed medians within the bound.\n";
  List.iter
    (fun (w : Workloads.t) ->
      let run seed =
        let ok, json = run_child ~seed ~seconds:(Some seconds) ~smoke:false ~trace:None w in
        if not ok then problems := (w.name ^ ": a run failed") :: !problems;
        json
      in
      let ja = run 1 in
      let jb = run 1 in
      let jc = run 2 in
      pr "\n## %s\n\n| metric | unit | bound | A (seed 1) | B (seed 1) | C (seed 2) | A vs B |\n|---|---|---|---|---|---|---|\n" w.name;
      List.iter
        (fun (name, bound) ->
          match (metric_of ja name, metric_of jb name) with
          | Some (ma, qa1, qa3, unit), Some (mb, qb1, qb3, _) ->
            let short x = if Float.is_integer x then Json.num x else Printf.sprintf "%.4g" x in
            let cell (m, q1, q3) = Printf.sprintf "%s [%s, %s]" (short m) (short q1) (short q3) in
            let agree, bound_s =
              match bound with
              | Exact -> (ma = mb, "exact")
              | Timed (share, floor) ->
                ( Float.abs (mb -. ma) <= Float.max (share *. ma) floor,
                  if floor > 0. then Printf.sprintf "%g%% or %g s" (100. *. share) floor
                  else Printf.sprintf "%g%%" (100. *. share) )
            in
            if not agree then problems := Printf.sprintf "%s %s: A %s, B %s" w.name name (Json.num ma) (Json.num mb) :: !problems;
            pr "| %s | %s | %s | %s | %s | %s | %s |\n" name unit bound_s
              (cell (ma, qa1, qa3)) (cell (mb, qb1, qb3))
              (match metric_of jc name with Some (m, q1, q3, _) -> cell (m, q1, q3) | None -> "-")
              (if agree then "ok" else "DISAGREE")
          | _ -> ())
        end_to_end)
    Workloads.all;
  pr "\nVerdict: %s\n"
    (if !problems = [] then "A and B agree on every end-to-end metric."
     else "FAILED\n\n" ^ String.concat "\n" (List.rev_map (fun p -> "- " ^ p) !problems));
  let oc = open_out "bench/suite/RESULTS.md" in
  Buffer.output_buffer oc buf;
  close_out oc;
  if !problems <> [] then begin
    List.iter prerr_endline (List.rev !problems);
    exit 1
  end

(* ---------------------------------------------------------------- *)
(* Command line. *)

let die msg =
  prerr_string ("kbench: " ^ msg ^ "\n" ^ usage);
  exit 2

type opts = {
  mutable seed : int option;
  mutable seconds : float option;
  mutable smoke : bool;
  mutable trace : string option;
  mutable workload : string option;
}

let parse ~allowed args =
  let o = { seed = None; seconds = None; smoke = false; trace = None; workload = None } in
  let num conv flag v = match conv v with Some x -> x | None -> die (Printf.sprintf "bad value %S for %s" v flag) in
  let rec go = function
    | [] -> ()
    | flag :: _ when not (List.mem flag allowed) -> die ("unknown argument " ^ flag)
    | "--smoke" :: rest -> o.smoke <- true; go rest
    | flag :: v :: rest ->
      (match flag with
      | "--seed" -> o.seed <- Some (num int_of_string_opt flag v)
      | "--seconds" ->
        let t = num float_of_string_opt flag v in
        if not (t >= 0.) then die "--seconds must be >= 0";
        o.seconds <- Some t
      | "--trace" -> o.trace <- Some v
      | _ (* --workload *) -> o.workload <- Some v);
      go rest
    | [ flag ] -> die ("missing value for " ^ flag)
  in
  go args;
  o

let workload name =
  match Workloads.find name with Some w -> w | None -> die ("unknown workload " ^ name)

let () =
  let common = [ "--seed"; "--seconds"; "--smoke"; "--trace" ] in
  let run_one w o =
    let seed = Option.value o.seed ~default:1 in
    let seconds = Option.value o.seconds ~default:(if o.smoke then 0. else default_seconds) in
    let r = run_workload ~seed ~seconds ~smoke:o.smoke ~traced:true ~trace_file:o.trace w in
    print_endline (Json.to_string (result_json w ~seed r));
    if r.failed > 0 then exit 1
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "run" ] -> die "run needs a workload"
  | "run" :: name :: args -> run_one (workload name) (parse ~allowed:common args)
  | "all" :: args ->
    let o = parse ~allowed:common args in
    if not (run_all ~seed:(Option.value o.seed ~default:1) ~seconds:o.seconds ~smoke:o.smoke ~trace:o.trace)
    then exit 1
  | "repeat" :: args ->
    let o = parse ~allowed:[ "--seconds" ] args in
    repeat ~seconds:(Option.value o.seconds ~default:default_seconds)
  | "measure" :: args ->
    let o = parse ~allowed:[ "--workload"; "--seed"; "--seconds"; "--trace" ] args in
    let need what = function Some v -> v | None -> die ("measure needs " ^ what) in
    let w = workload (need "--workload" o.workload) in
    let trace =
      match need "--trace" o.trace with "0" -> false | "1" -> true | v -> die ("--trace takes 0 or 1, not " ^ v)
    in
    let seed = need "--seed" o.seed and seconds = need "--seconds" o.seconds in
    let r = run_workload ~seed ~seconds ~smoke:false ~traced:trace ~trace_file:None w in
    print_endline (Json.to_string (summary_json r ~trace));
    if r.failed > 0 then exit 1
  | [] -> die "no command"
  | cmd :: _ -> die ("unknown command " ^ cmd)
