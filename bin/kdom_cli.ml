(* Command-line front-end: run any algorithm of the library on any generated
   workload and print the result with its statistics.

     dune exec bin/kdom_cli.exe -- dom --family random-tree -n 1000 -k 5
     dune exec bin/kdom_cli.exe -- mst --family gnp -n 400
     dune exec bin/kdom_cli.exe -- route --family grid -n 225 -k 3
*)

open Kdom_graph
open Cmdliner

(* ------------------------------------------------------------------ *)
(* workload construction *)

(* Graph families by name: each builds an [n]-node instance from an RNG. *)
let families =
  let side lo n = max lo (int_of_float (sqrt (float_of_int n))) in
  [
    ("path", fun ~rng n -> Generators.path ~rng n);
    ("star", fun ~rng n -> Generators.star ~rng n);
    ("binary-tree", fun ~rng n -> Generators.binary_tree ~rng n);
    ("random-tree", fun ~rng n -> Generators.random_tree ~rng n);
    ("caterpillar", fun ~rng n -> Generators.caterpillar ~rng ~spine:(max 1 (n / 5)) ~legs:4);
    ("cycle", fun ~rng n -> Generators.cycle ~rng n);
    ("grid", fun ~rng n -> Generators.grid ~rng ~rows:(side 2 n) ~cols:(side 2 n));
    ("torus", fun ~rng n -> Generators.torus ~rng ~rows:(side 3 n) ~cols:(side 3 n));
    ("gnp", fun ~rng n -> Generators.gnp_connected ~rng ~n ~p:(4.0 /. float_of_int n *. 2.0));
    ( "lollipop",
      fun ~rng n -> Generators.lollipop ~rng ~clique:(max 2 (n / 3)) ~tail:(max 1 (n - (n / 3))) );
    ("ladder", fun ~rng n -> Generators.ladder ~rng (max 2 (n / 2)));
    ("regular", fun ~rng n -> Generators.random_regular ~rng ~n ~d:4);
    ("complete", fun ~rng n -> Generators.complete ~rng n);
    ("hidden", fun ~rng n -> Generators.hidden_path ~rng ~n ~shortcuts:(2 * n));
    ("pa", fun ~rng n -> Generators.preferential_attachment ~rng ~n ~m:2);
    ( "rgg",
      fun ~rng n ->
        Generators.random_geometric ~rng ~n ~radius:(sqrt (6.0 /. (Float.pi *. float_of_int n))) );
  ]

let make_graph ~family:(_, build) ~n ~seed = build ~rng:(Rng.create seed) n

(* A combination of valid arguments that does not fit together: report it
   like cmdliner reports a bad value, without a backtrace. *)
let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("kdom: " ^ msg); exit 2) fmt

let need_tree g what =
  if not (Tree.is_tree g) then fail "%s needs a tree family" what

(* An enum over an association list whose value keeps its name (which also
   spares cmdliner comparing functional values when it prints a default). *)
let named l = Arg.enum (List.map (fun ((name, _) as p) -> (name, p)) l)

let default name l = (name, List.assoc name l)

let names l = List.map (fun x -> (x, x)) l

let family_arg =
  let doc = "Graph family: " ^ Arg.doc_alts_enum families ^ "." in
  Arg.(
    value
    & opt (named families) (default "random-tree" families)
    & info [ "family" ] ~docv:"FAMILY" ~doc)

let n_arg = Arg.(value & opt int 500 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")
let k_arg = Arg.(value & opt int 4 & info [ "k"; "param" ] ~docv:"K" ~doc:"Domination parameter k.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some d when d >= 1 -> Ok d
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* A float that must satisfy [ok]; anything else is a usage error. *)
let float_such_that what ok =
  let parse s =
    match float_of_string_opt s with
    | Some x when ok x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_float)

let probability = float_such_that "a probability in [0, 1]" (fun p -> p >= 0. && p <= 1.)

let positive_float =
  float_such_that "a positive finite number" (fun x -> Float.is_finite x && x > 0.)

(* The composite drivers (FastDOM, FastMST, repair) call [Runtime.run]
   internally, so each command body runs under [Engine.with_domains]
   rather than threading the count through every call site; sound because
   the sharded executor is observationally identical. *)
let domains_arg =
  Arg.(
    value & opt positive_int 1
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Run every engine execution as $(docv) shards on $(docv) OCaml \
           domains (bit-identical results at every domain count).")

(* ------------------------------------------------------------------ *)
(* subcommands *)

(* Two BFS sweeps, the second from the node the first reached last: the
   farthest distance it finds is the diameter of a tree and a lower bound
   on any other graph (the exact diameter costs n BFS runs). *)
let graph_line g =
  let farthest s =
    let b = Traversal.bfs g s in
    let v = b.order.(Array.length b.order - 1) in
    (v, b.dist.(v))
  in
  let d = if Graph.n g = 0 then 0 else snd (farthest (fst (farthest 0))) in
  Printf.sprintf "graph: n=%d m=%d diameter%s%d" (Graph.n g) (Graph.m g)
    (if Tree.is_tree g then "=" else ">=")
    d

let describe g = Format.printf "%s@." (graph_line g)

(* --trace FILE support: create a trace when requested, export it after. *)
let make_trace file = Option.map (fun _ -> Kdom_congest.Trace.create ()) file

let write_trace tr file =
  match (tr, file) with
  | Some tr, Some path ->
    let oc = open_out path in
    Kdom_congest.Trace.export_jsonl tr oc;
    close_out oc;
    Format.printf "trace: %d spans over %d rounds -> %s@."
      (List.length (Kdom_congest.Trace.spans tr))
      (Kdom_congest.Trace.clock tr) path
  | _ -> ()

let dom_cmd family n k seed domains trace_file =
  Kdom_congest.Engine.with_domains domains @@ fun () ->
  let g = make_graph ~family ~n ~seed in
  describe g;
  let tr = make_trace trace_file in
  Option.iter (fun t -> Kdom_congest.Trace.set_shards t domains) tr;
  (* Corollary 3.9: D k-dominates g and every cluster has radius <= k *)
  let check dominating partition =
    (Domination.is_k_dominating g ~k dominating, Kdom.Cluster.max_radius partition)
  in
  let valid, radius =
    if Tree.is_tree g then begin
      let r = Kdom.Fastdom_tree.run ?trace:tr g ~k in
      let valid, radius = check r.dominating r.partition in
      Format.printf "FastDOM_T: |D| = %d (n/(k+1) = %d), valid = %b, rounds = %d@."
        (List.length r.dominating)
        (Graph.n g / (k + 1))
        valid r.rounds;
      Format.printf "partition: %d clusters, max radius %d@."
        (List.length r.partition.clusters)
        radius;
      Format.printf "@[<v2>rounds:@,%a@]@." Kdom.Ledger.pp r.ledger;
      (valid, radius)
    end
    else begin
      let r = Kdom.Fastdom_graph.run ?trace:tr g ~k in
      let valid, radius = check r.dominating r.partition in
      Format.printf "FastDOM_G: |D| = %d (n/(k+1) = %d), valid = %b, rounds = %d@."
        (List.length r.dominating)
        (Graph.n g / (k + 1))
        valid r.rounds;
      Format.printf "fragments: %d, partition clusters: %d (max radius %d)@."
        (List.length r.fragments)
        (List.length r.partition.clusters)
        radius;
      Format.printf "@[<v2>rounds:@,%a@]@." Kdom.Ledger.pp r.ledger;
      (valid, radius)
    end
  in
  write_trace tr trace_file;
  if radius > k then Format.printf "partition radius %d exceeds k = %d@." radius k;
  if not (valid && radius <= k) then exit 1

let mst_cmd family n seed elect domains trace_file =
  Kdom_congest.Engine.with_domains domains @@ fun () ->
  let g = make_graph ~family ~n ~seed in
  describe g;
  let tr = make_trace trace_file in
  Option.iter (fun t -> Kdom_congest.Trace.set_shards t domains) tr;
  let kruskal = Mst.kruskal g in
  let fast =
    if elect then Kdom.Fast_mst.run_elected ?trace:tr g
    else Kdom.Fast_mst.run ?trace:tr g
  in
  let ghs = Kdom.Ghs.run g in
  let trivial = Kdom.Collect_all.run g in
  let fast_ok = Mst.same_edge_set fast.mst kruskal
  and ghs_ok = Mst.same_edge_set ghs.mst kruskal
  and trivial_ok = Mst.same_edge_set trivial.mst kruskal in
  Format.printf "MST weight (Kruskal): %d@." (Mst.weight kruskal);
  if elect then
    Format.printf "Leader:      node %d  (election: rounds = %d, messages = %d)@." fast.root
      fast.bfs_stats.rounds fast.bfs_stats.messages;
  Format.printf "FastMST:     rounds = %6d  correct = %b  stalls = %d@." fast.rounds fast_ok
    fast.pipeline.stalls;
  Format.printf "GHS:         rounds = %6d  correct = %b@." ghs.rounds ghs_ok;
  Format.printf "Collect-all: rounds = %6d  correct = %b (%d edges at root)@."
    trivial.rounds trivial_ok trivial.edges_at_root;
  Format.printf "@[<v2>FastMST rounds:@,%a@]@." Kdom.Ledger.pp fast.ledger;
  write_trace tr trace_file;
  if not (fast_ok && ghs_ok && trivial_ok && fast.pipeline.stalls = 0) then exit 1

let route_cmd family n k seed =
  let g = make_graph ~family ~n ~seed in
  describe g;
  let scheme = Kdom_apps.Routing.build g ~k in
  let report = Kdom_apps.Routing.evaluate ~rng:(Rng.create (seed + 1)) scheme ~pairs:500 in
  Format.printf
    "routing: clusters = %d, avg table = %.1f (full = %d), avg stretch = %.3f, max = %.2f@."
    (List.length scheme.partition.clusters)
    report.avg_table
    (Kdom_apps.Routing.full_table_size g)
    report.avg_stretch report.max_stretch

let centers_cmd family n k seed =
  let g = make_graph ~family ~n ~seed in
  describe g;
  let kdom = Kdom_apps.Centers.via_kdom g ~k in
  let greedy = Kdom_apps.Centers.greedy_k_center g ~count:kdom.count in
  Format.printf "k-dom servers: %d, max distance %d, avg %.2f@." kdom.count
    kdom.max_distance kdom.avg_distance;
  Format.printf "greedy (same count): max distance %d, avg %.2f@." greedy.max_distance
    greedy.avg_distance;
  let d = Kdom_apps.Directory.place g ~k in
  let c = Kdom_apps.Directory.evaluate d in
  Format.printf "directory: %d copies, max lookup %d, update cost %d@." c.copies
    c.max_lookup c.update_cost

(* ------------------------------------------------------------------ *)
(* faults: any message-level algorithm on a lossy, crashy network *)

(* The algorithm menu shared by the [faults], [chaos] and [trace]
   subcommands: {!Kdom.Battery}'s node program, word budget and oracle. *)
let fault_case g ~k algo =
  match Kdom.Battery.case g ~k algo with
  | Some c -> c
  | None -> fail "%s: tree height <= k, no census stage runs" algo
  | exception Invalid_argument msg -> fail "%s" msg

(* The oracle's verdict: "ok", or the violated invariants. *)
let verdict oracle states =
  match oracle states with () -> "ok" | exception Failure detail -> detail

(* --repair: run the self-healing maintenance layer under a seeded churn
   schedule instead of a message-level algorithm under link faults. *)
let repair_cmd g ~k ~seed ~crashes ~cuts ~trace_file =
  let open Kdom_congest in
  need_tree g "--repair";
  let plan =
    Kdom.Cluster.plan_of_partition
      (Kdom.Dom_partition.partition g (Kdom.Dom_partition.run g ~k))
  in
  let beta = max 2 (k + 1) and lease = 2 in
  let dmax = Repair.default_dmax plan in
  let last = 3 * beta in
  let events =
    Faults.random_churn g ~seed:(seed + 3) ~crashes ~edge_cuts:cuts ~last
  in
  let horizon =
    last + (2 * ((lease * beta) + (3 * dmax) + 12)) + Graph.n g
  in
  let cfg = { Repair.plan; beta; lease; dmax; horizon } in
  let e = Engine.create g in
  let churn = Engine.Churn.compile e events in
  let tr = make_trace trace_file in
  let states, stats = Repair.run ?trace:tr ~churn e cfg in
  let rep = Repair.decode states in
  write_trace tr trace_file;
  let clusters = Array.fold_left (fun a p -> if p = -1 then a + 1 else a) 0 plan.parent in
  Format.printf "plan: %d clusters, max depth %d; beta=%d lease=%d dmax=%d horizon=%d@."
    clusters
    (Array.fold_left max 0 plan.depth)
    beta lease dmax horizon;
  let first_event =
    List.fold_left
      (fun a ev -> min a (Engine.Churn.round_of ev))
      max_int events
  in
  Format.printf "churn: %d crashes, %d edge cuts over rounds %s..%d@." crashes
    cuts
    (if events = [] then "-" else string_of_int first_event)
    last;
  Format.printf
    "run: %d rounds, %d heartbeat frames, %d repair frames, %d suspicions@."
    stats.Engine.rounds rep.hb_frames rep.repair_frames rep.suspicions;
  (if rep.first_suspect >= 0 then
     Format.printf "detection latency: %d rounds; repair: %d rounds@."
       (rep.first_suspect - first_event)
       (max 0 (rep.last_repair - rep.first_suspect))
   else Format.printf "detection latency: - (nothing suspected)@.");
  let alive = Engine.Churn.final_alive churn in
  let dead_edges = Engine.Churn.final_edges_down churn in
  let centers = Repair.live_centers rep alive in
  let verdict =
    Oracle.describe
      (Oracle.eventual_k_domination g ~alive ~dead_edges ~centers ~bound:(Graph.n g))
  in
  Format.printf "oracle (eventual k-domination, %d live centers): %s@."
    (List.length centers) verdict;
  if verdict <> "ok" then exit 1

(* A link that loses every frame makes reliable delivery give up: a
   [kdom:] failure, not an internal error. *)
let reliably f =
  try f ()
  with Kdom_congest.Async.Delivery_failed { src; dst; attempts } ->
    fail "reliable delivery gave up on frame %d -> %d after %d attempts" src dst
      attempts

let faults_cmd family n k seed algo drop dup slow fifo max_delay crashes cuts
    repair domains trace_file =
  let open Kdom_congest in
  Engine.with_domains domains @@ fun () ->
  let g = make_graph ~family ~n ~seed in
  describe g;
  if repair then repair_cmd g ~k ~seed ~crashes ~cuts ~trace_file
  else begin
  let (Chaos.Case (_, max_words, mk, oracle)) = fault_case g ~k algo in
  let faults =
    Faults.lossy ~drop ~duplicate:dup ~slow ~reorder:(not fifo) ~seed:(seed + 1) ()
  in
  let tr = make_trace trace_file in
  let sync_states, sync_stats = Runtime.run ~max_words g (mk ()) in
  let states, frep =
    reliably @@ fun () ->
    Trace.observe tr ~max_words (algo ^ ".reliable") (fun sink ->
        Async.run_reliable ~rng:(Rng.create (seed + 2)) ~faults ~max_delay
          ~max_words ~sink g (mk ()))
  in
  Option.iter
    (fun t ->
      Trace.note t "frames" frep.Async.frames;
      Trace.note t "retransmits" frep.Async.retransmits;
      Trace.note t "timeouts" frep.Async.timeouts;
      Trace.note t "dropped" frep.Async.dropped;
      Trace.note t "duplicated" frep.Async.duplicated)
    tr;
  write_trace tr trace_file;
  Format.printf
    "faults: drop=%.2f dup=%.2f slow=%.2f %s max_delay=%.2f seed=%d@." drop dup
    slow
    (if fifo then "fifo" else "reorder")
    max_delay seed;
  Format.printf
    "reliable run: pulses = %d (sync rounds = %d), alg msgs = %d, sync msgs = %d@."
    frep.Async.report.pulses sync_stats.rounds frep.Async.report.alg_messages
    frep.Async.report.sync_messages;
  Format.printf
    "link layer:   frames = %d, retransmits = %d, timeouts = %d, dropped = %d, \
     duplicated = %d@."
    frep.Async.frames frep.Async.retransmits frep.Async.timeouts
    frep.Async.dropped frep.Async.duplicated;
  Format.printf "states bit-identical to synchronous run: %b@."
    (states = sync_states);
  let verdict = verdict oracle states in
  Format.printf "oracle: %s@." verdict;
  if states <> sync_states || verdict <> "ok" then exit 1
  end

(* ------------------------------------------------------------------ *)
(* trace: record a run as a span trace (versioned JSONL or Chrome JSON) *)

(* The synchronous runs [trace] records, by [--algo] name. *)
let traced_runs =
  [
    ("bfs", fun ~trace g ~k:_ -> ignore (Kdom.Bfs_tree.run ~trace g ~root:0));
    ( "coloring",
      fun ~trace g ~k:_ ->
        need_tree g "coloring";
        ignore (Kdom.Coloring.three_color_congest ~trace g ~root:0) );
    ("leader", fun ~trace g ~k:_ -> ignore (Kdom.Leader.elect ~trace g));
    ( "diamdom",
      fun ~trace g ~k ->
        need_tree g "diamdom";
        ignore (Kdom.Diam_dom.run ~trace g ~root:0 ~k) );
    ("smc", fun ~trace g ~k -> ignore (Kdom.Simple_mst_congest.run ~trace g ~k));
    ( "dom",
      fun ~trace g ~k ->
        if Tree.is_tree g then ignore (Kdom.Fastdom_tree.run ~trace g ~k)
        else ignore (Kdom.Fastdom_graph.run ~trace g ~k) );
    ("mst", fun ~trace g ~k:_ -> ignore (Kdom.Fast_mst.run ~trace g));
  ]

let trace_formats =
  [ ("jsonl", Kdom_congest.Trace.export_jsonl); ("chrome", Kdom_congest.Trace.export_chrome) ]

let trace_cmd family n k seed algo out (_, write) drop dup validate =
  let open Kdom_congest in
  match validate with
  | Some path ->
    let ic = open_in path in
    let r = Trace.validate_channel ic in
    close_in ic;
    (match r with
    | Ok lines ->
      Format.printf "%s: %d lines valid against %s@." path lines Trace.schema_version
    | Error e ->
      Format.eprintf "%s: invalid trace: %s@." path e;
      exit 1)
  | None ->
    let g = make_graph ~family ~n ~seed in
    Format.eprintf "%s@." (graph_line g);
    let tr = Trace.create () in
    (if drop > 0.0 || dup > 0.0 then begin
       (* faulty run: reliable delivery over fault injection *)
       if not (List.mem algo Kdom.Battery.names) then
         fail "--algo %s has no faulty run; with --drop/--dup use %s" algo
           (String.concat ", " Kdom.Battery.names);
       let (Chaos.Case (_, max_words, mk, _)) = fault_case g ~k algo in
       let faults = Faults.lossy ~drop ~duplicate:dup ~seed:(seed + 1) () in
       let _states, frep =
         reliably @@ fun () ->
         Trace.observe (Some tr) ~max_words (algo ^ ".reliable") (fun sink ->
             Async.run_reliable ~rng:(Rng.create (seed + 2)) ~faults ~max_words
               ~sink g (mk ()))
       in
       Trace.note tr "frames" frep.Async.frames;
       Trace.note tr "retransmits" frep.Async.retransmits;
       Trace.note tr "timeouts" frep.Async.timeouts;
       Trace.note tr "dropped" frep.Async.dropped;
       Trace.note tr "duplicated" frep.Async.duplicated
     end
     else
       match List.assoc_opt algo traced_runs with
       | Some run -> run ~trace:tr g ~k
       | None ->
         fail "--algo %s needs --drop/--dup; synchronous runs are %s" algo
           (String.concat ", " (List.map fst traced_runs)));
    (match out with
    | Some path ->
      let oc = open_out path in
      write tr oc;
      close_out oc;
      Format.eprintf "trace -> %s@." path
    | None -> write tr stdout);
    Format.eprintf "%a@." Metrics.pp (Metrics.report tr)

let algo_arg algos =
  Arg.(
    value
    & opt (enum (names algos)) "bfs"
    & info [ "algo" ] ~docv:"ALGO" ~doc:("Algorithm: " ^ doc_alts algos ^ "."))

let drop_arg =
  Arg.(
    value
    & opt probability 0.2
    & info [ "drop" ] ~docv:"P" ~doc:"Per-frame drop probability.")

let dup_arg =
  Arg.(
    value
    & opt probability 0.1
    & info [ "dup" ] ~docv:"P" ~doc:"Per-frame duplication probability.")

let slow_arg =
  Arg.(
    value
    & opt probability 0.0
    & info [ "slow" ] ~docv:"P" ~doc:"Per-delivery slowdown probability (10x delay).")

let fifo_arg =
  Arg.(
    value & flag
    & info [ "fifo" ] ~doc:"Force per-link FIFO delivery (disable reordering).")

let max_delay_arg =
  Arg.(
    value
    & opt positive_float 1.0
    & info [ "max-delay" ] ~docv:"D" ~doc:"Upper bound of the (0, D] link delay.")

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Also record the run as a versioned JSONL span trace into $(docv).")

let churn_arg =
  Arg.(
    value
    & opt int 1
    & info [ "churn" ] ~docv:"N"
        ~doc:"With --repair: number of permanent node fail-stops in the seeded churn schedule.")

let cuts_arg =
  Arg.(
    value
    & opt int 1
    & info [ "cuts" ] ~docv:"M"
        ~doc:"With --repair: number of undirected edge cuts in the seeded churn schedule.")

let repair_arg =
  Arg.(
    value & flag
    & info [ "repair" ]
        ~doc:
          "Run the self-healing maintenance layer instead: build the \
           k-dominating partition, apply the churn schedule on the \
           synchronous engine, and report detection latency, repair rounds \
           and the eventual-k-domination oracle verdict.")

let faults_t =
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run an algorithm to quiescence on a lossy network (reliable \
          delivery over fault injection) and verify it against the \
          synchronous execution; with $(b,--repair), run the self-healing \
          k-dominating-set maintenance layer under topology churn instead.")
    Term.(
      const faults_cmd $ family_arg $ n_arg $ k_arg $ seed_arg
      $ algo_arg Kdom.Battery.names
      $ drop_arg $ dup_arg $ slow_arg $ fifo_arg $ max_delay_arg $ churn_arg
      $ cuts_arg $ repair_arg $ domains_arg $ trace_file_arg)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the trace to $(docv) (default stdout).")

let trace_format_arg =
  Arg.(
    value
    & opt (named trace_formats) (default "jsonl" trace_formats)
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          ("Output format: " ^ doc_alts_enum trace_formats
         ^ " (the versioned schema, or Perfetto-loadable)."))

let trace_algo_arg =
  let sync = List.map fst traced_runs in
  let algos = List.sort_uniq compare (sync @ Kdom.Battery.names) in
  Arg.(
    value
    & opt (enum (names algos)) "diamdom"
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:
          ("Algorithm to trace: " ^ doc_alts sync
         ^ " (synchronous); with --drop/--dup: " ^ doc_alts Kdom.Battery.names
         ^ " (reliable delivery over fault injection)."))

let trace_drop_arg =
  Arg.(
    value & opt probability 0.0
    & info [ "drop" ] ~docv:"P" ~doc:"Per-frame drop probability (faulty run).")

let trace_dup_arg =
  Arg.(
    value & opt probability 0.0
    & info [ "dup" ] ~docv:"P" ~doc:"Per-frame duplication probability (faulty run).")

let validate_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "validate" ] ~docv:"FILE"
        ~doc:"Validate $(docv) against the JSONL trace schema and exit.")

let trace_t =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record an algorithm run as a span trace: versioned JSONL \
          (machine-checkable, see --validate) or Chrome trace-event JSON for \
          ui.perfetto.dev.")
    Term.(
      const trace_cmd $ family_arg $ n_arg $ k_arg $ seed_arg $ trace_algo_arg
      $ trace_out_arg $ trace_format_arg $ trace_drop_arg $ trace_dup_arg
      $ validate_arg)

let dom_t =
  Cmd.v
    (Cmd.info "dom"
       ~doc:
         "Compute a small k-dominating set (FastDOM_T / FastDOM_G).  Exits 1 \
          unless the set k-dominates the graph and every cluster of the \
          partition has radius at most k.")
    Term.(
      const dom_cmd $ family_arg $ n_arg $ k_arg $ seed_arg $ domains_arg
      $ trace_file_arg)

let elect_arg =
  Arg.(value & flag & info [ "elect" ] ~doc:"Elect the root instead of assuming node 0.")

let mst_t =
  Cmd.v
    (Cmd.info "mst"
       ~doc:
         "Distributed MST: FastMST vs GHS vs collect-all.  Exits 1 unless every \
          MST equals Kruskal's and FastMST reports no pipeline stalls.")
    Term.(
      const mst_cmd $ family_arg $ n_arg $ seed_arg $ elect_arg $ domains_arg
      $ trace_file_arg)

let route_t =
  Cmd.v
    (Cmd.info "route" ~doc:"Cluster routing tables: size/stretch tradeoff.")
    Term.(const route_cmd $ family_arg $ n_arg $ k_arg $ seed_arg)

let hier_cmd family n seed =
  let g = make_graph ~family ~n ~seed in
  describe g;
  List.iter
    (fun ks ->
      let h = Kdom_apps.Hierarchy.build g ~ks in
      let report = Kdom_apps.Hierarchy.evaluate ~rng:(Rng.create (seed + 2)) h ~pairs:300 in
      Format.printf "levels k=%-8s avg table = %6.1f  avg stretch = %5.3f  max = %5.2f@."
        (String.concat "," (List.map string_of_int ks))
        report.avg_table report.avg_stretch report.max_stretch)
    [ [ 2 ]; [ 2; 4 ]; [ 2; 4; 8 ] ]

let hier_t =
  Cmd.v
    (Cmd.info "hier" ~doc:"Nested multi-level routing hierarchy tradeoff.")
    Term.(const hier_cmd $ family_arg $ n_arg $ seed_arg)

let centers_t =
  Cmd.v
    (Cmd.info "centers" ~doc:"Server placement and directory replication.")
    Term.(const centers_cmd $ family_arg $ n_arg $ k_arg $ seed_arg)

(* serve: drive a request workload through the cluster forest *)

let serve_plan g ~k =
  if Tree.is_tree g then
    Kdom.Cluster.plan_of_partition
      (Kdom.Dom_partition.partition g (Kdom.Dom_partition.run g ~k))
  else
    let dom = Kdom.Fastdom_graph.run g ~k in
    Kdom.Cluster.plan_of_partition dom.partition

let mixes = [ ("uniform", Kdom.Workload.uniform); ("hotspot", Kdom.Workload.hotspot) ]

let serve_cmd family n k seed (mix_name, mix) requests window crashes retries
    domains trace_file validate =
  let open Kdom_congest in
  Engine.with_domains domains @@ fun () ->
  let g = make_graph ~family ~n ~seed in
  describe g;
  let plan = serve_plan g ~k in
  let reqs = Kdom.Workload.generate g plan mix ~seed:(seed + 1) ~requests ~window in
  let dmax = Array.fold_left max 0 plan.Repair.depth in
  let retry_after = (4 * dmax) + 8 in
  let horizon = window + ((retries + 1) * retry_after) + requests + 8 in
  let cfg = { Serve.plan; requests = reqs; horizon; retry_after; retries } in
  Format.printf "plan: max depth %d; %d requests (%s) over window %d, horizon %d@."
    dmax requests mix_name window horizon;
  let e = Engine.create g in
  let tr = make_trace trace_file in
  Option.iter (fun t -> Trace.set_shards t domains) tr;
  let peak_at (rep : Serve.report) =
    let v = rep.queue_peak_node in
    if v < 0 then "" else Printf.sprintf " at node %d (dominator %d)" v plan.dominator.(v)
  in
  let failures =
    if crashes = 0 then begin
      let states, stats = Serve.run ?trace:tr e cfg in
      let rep = Serve.decode cfg states in
      Format.printf
        "run: %d rounds, %d frames, queue peak %d%s; answered %d, rejected %d, \
         lost %d (%d local, %d retries)@."
        stats.Engine.rounds rep.Serve.frames rep.Serve.queue_peak (peak_at rep)
        rep.Serve.answered rep.Serve.rejected rep.Serve.lost rep.Serve.local
        rep.Serve.retries_used;
      Format.printf "latency p50/p99 = %d/%d rounds, hops p50/p99 = %d/%d@."
        (Serve.percentile rep.Serve.latencies 50)
        (Serve.percentile rep.Serve.latencies 99)
        (Serve.percentile rep.Serve.hop_counts 50)
        (Serve.percentile rep.Serve.hop_counts 99);
      if validate then Serve.check g cfg rep else []
    end
    else begin
      let beta = max 2 (k + 1) and lease = 2 in
      let last = window in
      let events =
        Faults.random_churn g ~seed:(seed + 3) ~crashes ~edge_cuts:0 ~last
      in
      let settle = last + (2 * ((lease * beta) + (3 * dmax) + 12)) + Graph.n g in
      let h = Serve.with_repair ?trace:tr ~beta ~lease ~settle e cfg ~churn:events in
      Format.printf
        "phase 1 (under %d crashes): answered %d, rejected %d, lost %d, \
         queue peak %d%s; repair: %d suspicions, %d reparents@."
        crashes h.Serve.phase1.Serve.answered h.Serve.phase1.Serve.rejected
        h.Serve.phase1.Serve.lost h.Serve.phase1.Serve.queue_peak
        (peak_at h.Serve.phase1) h.Serve.repair.Repair.suspicions
        h.Serve.repair.Repair.reparents;
      (match h.Serve.phase2 with
      | None -> Format.printf "phase 2: nothing survived unanswered@."
      | Some p2 ->
        Format.printf
          "phase 2 (healed forest): %d re-injected; answered %d, rejected %d, \
           lost %d@."
          (Array.length h.Serve.retried)
          p2.Serve.answered p2.Serve.rejected p2.Serve.lost);
      if validate then Serve.check_handover g cfg h else []
    end
  in
  write_trace tr trace_file;
  if validate then begin
    match failures with
    | [] -> Format.printf "oracle: ok@."
    | fs ->
      List.iter
        (fun f -> Format.printf "oracle FAILED [%s]: %s@." f.Oracle.check f.Oracle.detail)
        fs;
      exit 1
  end

let serve_t =
  let mix_arg =
    Arg.(
      value
      & opt (named mixes) (default "uniform" mixes)
      & info [ "mix" ] ~docv:"MIX"
          ~doc:
            ("Workload mix: " ^ doc_alts_enum mixes
           ^ " (60/20/20 with uniform or Zipf origins)."))
  in
  let requests_arg =
    Arg.(value & opt int 500 & info [ "requests" ] ~docv:"R" ~doc:"Requests to inject.")
  in
  let window_arg =
    Arg.(
      value & opt int 32
      & info [ "window" ] ~docv:"W" ~doc:"Injection window in rounds.")
  in
  let crashes_arg =
    Arg.(
      value & opt int 0
      & info [ "crashes" ] ~docv:"N"
          ~doc:
            "Crash $(docv) nodes mid-traffic, heal the forest with the repair \
             layer and re-inject the lost requests against it.")
  in
  let retries_arg =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N" ~doc:"Origin re-sends per request after the first.")
  in
  let validate_flag =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Check the run against the serving oracle (exact round trips \
             churn-free; eventual service across the repair handover) and \
             exit non-zero on failure.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Drive a synthetic lookup/publish/route workload through the cluster \
          forest on the CONGEST engine, with per-request latency and hop \
          accounting; optionally crash dominators mid-traffic and hand \
          requests over to the healed forest.")
    Term.(
      const serve_cmd $ family_arg $ n_arg $ k_arg $ seed_arg $ mix_arg
      $ requests_arg $ window_arg $ crashes_arg $ retries_arg $ domains_arg
      $ trace_file_arg $ validate_flag)

(* live dynamic-graph maintenance: a seeded churn script (arrivals,
   insertions, cuts, crashes, departures in bursts) maintained by the
   incremental repair layer, priced against a full recompute *)
let dynamic_cmd family n k seed domains arrivals insertions cuts crashes
    departs bursts quiescence =
  let open Kdom_congest in
  Engine.with_domains domains @@ fun () ->
  let base = make_graph ~family ~n ~seed in
  describe base;
  let sc =
    Kdom.Dyn_dom.scenario base ~k ~seed ~arrivals ~insertions ~cuts ~crashes
      ~departs ~bursts ~quiescence
  in
  Format.printf
    "union: n=%d m=%d; initial FastDOM: %d centers in %d rounds; script: %d \
     events over %d bursts@."
    (Graph.n sc.Kdom.Dyn_dom.union)
    (Graph.m sc.Kdom.Dyn_dom.union)
    (List.length sc.Kdom.Dyn_dom.centers0)
    sc.Kdom.Dyn_dom.fastdom_rounds
    (List.length sc.Kdom.Dyn_dom.script.Faults.script_events)
    (List.length sc.Kdom.Dyn_dom.script.Faults.script_checkpoints);
  let rep = Kdom.Dyn_dom.run sc in
  Format.printf "%6s %4s %4s %4s %4s %4s %4s %5s %5s %5s %4s %7s %7s %6s@."
    "ckpt" "ev" "dead" "dep" "arr" "ins" "cut" "susp" "repar" "lat" "wdog"
    "inc" "rec" "oracle";
  List.iter
    (fun (w : Dynamic.window_report) ->
      Format.printf "%6d %4d %4d %4d %4d %4d %4d %5d %5d %5d %4d %7d %7d %6d@."
        w.Dynamic.w_checkpoint w.Dynamic.w_events w.Dynamic.w_crashed
        w.Dynamic.w_departed w.Dynamic.w_arrived w.Dynamic.w_inserted
        w.Dynamic.w_cut w.Dynamic.w_suspicions w.Dynamic.w_reparents
        w.Dynamic.w_repair_latency w.Dynamic.w_watchdog_fired
        w.Dynamic.w_incremental_rounds w.Dynamic.w_recompute_rounds
        w.Dynamic.w_oracle_failures)
    rep.Dynamic.windows;
  let failures =
    List.fold_left
      (fun a (w : Dynamic.window_report) -> a + w.Dynamic.w_oracle_failures)
      0 rep.Dynamic.windows
  in
  Format.printf
    "total: incremental = %d rounds, full recompute = %d rounds (%.2fx), %d \
     live centers, oracle %s@."
    rep.Dynamic.total_incremental rep.Dynamic.total_recompute
    (float_of_int rep.Dynamic.total_recompute
    /. float_of_int (max 1 rep.Dynamic.total_incremental))
    (List.length rep.Dynamic.final_centers)
    (if failures = 0 then "clean at every checkpoint"
     else Printf.sprintf "FAILED %d checks" failures);
  if failures > 0 then exit 1

let dynamic_t =
  let iarg d name doc =
    Arg.(value & opt int d & info [ name ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "dynamic"
       ~doc:
         "Live dynamic-graph self-healing: maintain a k-dominating set \
          through a seeded churn script and compare incremental repair \
          against a full recompute.")
    Term.(
      const dynamic_cmd $ family_arg $ n_arg $ k_arg $ seed_arg $ domains_arg
      $ iarg 3 "arrivals" "Nodes that join mid-run."
      $ iarg 3 "insertions" "Reserved edges brought online mid-run."
      $ iarg 2 "cuts" "Edges severed mid-run."
      $ iarg 2 "crashes" "Node fail-stops."
      $ iarg 1 "departs" "Graceful leaves."
      $ iarg 3 "bursts" "Number of churn bursts."
      $ iarg 10 "quiescence" "Quiet rounds after each burst.")

(* ------------------------------------------------------------------ *)
(* chaos: composed fault storms (loss + duplication + delay + crashes +
   corruption + churn) judged by the oracles *)

let chaos_cmd family n k seed algo (storm_name, storm) validate domains =
  let open Kdom_congest in
  Engine.with_domains domains @@ fun () ->
  if validate then
    List.iter
      (fun (name, s) ->
        Chaos.validate s;
        Format.printf
          "%-10s flip=%-7g burst=%d truncate=%-7g drop=%.2f dup=%.2f \
           slow=%.2f crashes=%d kills=%d cuts=%d bursts=%d ok@."
          name s.Chaos.flip s.Chaos.burst s.Chaos.truncate s.Chaos.drop
          s.Chaos.duplicate s.Chaos.slow s.Chaos.crashes s.Chaos.kills
          s.Chaos.cuts s.Chaos.bursts)
      Chaos.presets
  else begin
    Chaos.validate storm;
    let g = make_graph ~family ~n ~seed in
    describe g;
    Format.printf
      "storm: %s (flip=%g drop=%.2f dup=%.2f slow=%.2f crashes=%d kills=%d \
       cuts=%d)@."
      storm_name
      storm.Chaos.flip storm.Chaos.drop storm.Chaos.duplicate storm.Chaos.slow
      storm.Chaos.crashes storm.Chaos.kills storm.Chaos.cuts;
    if algo = "repair" then begin
      need_tree g "chaos repair";
      let plan =
        Kdom.Cluster.plan_of_partition
          (Kdom.Dom_partition.partition g (Kdom.Dom_partition.run g ~k))
      in
      let v, rep = Chaos.run_repair ~seed ~storm g plan in
      Format.printf "%a@." Chaos.pp_verdict v;
      Format.printf
        "repair: %d heartbeat frames, %d repair frames, %d suspicions@."
        rep.Repair.hb_frames rep.Repair.repair_frames rep.Repair.suspicions;
      Format.printf
        "oracle: eventual k-domination over survivors ok; executors \
         bit-identical@."
    end
    else begin
      let v = Chaos.run_message ~seed ~storm g (fault_case g ~k algo) in
      Format.printf "%a@." Chaos.pp_verdict v;
      Format.printf
        "oracle: ok; states bit-identical to the fault-free synchronous run@."
    end
  end

let storm_arg =
  Arg.(
    value
    & opt (named Kdom_congest.Chaos.presets) (default "squall" Kdom_congest.Chaos.presets)
    & info [ "storm" ] ~docv:"NAME"
        ~doc:("Storm preset: " ^ doc_alts_enum Kdom_congest.Chaos.presets ^ "."))

let chaos_validate_arg =
  Arg.(
    value & flag
    & info [ "validate" ]
        ~doc:"Validate every storm preset and print its parameters, then exit.")

let chaos_t =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run an algorithm through a composed fault storm — loss, \
          duplication, delay, transient crashes and frame corruption at \
          once — and require oracle-clean, bit-identical recovery; with \
          $(b,repair) as the algorithm, run the self-healing maintenance \
          layer over the storm's permanent churn plane instead.")
    Term.(
      const chaos_cmd $ family_arg $ n_arg $ k_arg $ seed_arg
      $ algo_arg (Kdom.Battery.names @ [ "repair" ])
      $ storm_arg $ chaos_validate_arg $ domains_arg)

let () =
  let info =
    Cmd.info "kdom" ~version:"1.0.0"
      ~doc:"Fast distributed construction of k-dominating sets and applications (PODC'95)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ dom_t; mst_t; route_t; hier_t; centers_t; faults_t; chaos_t;
            trace_t; dynamic_t; serve_t ]))
