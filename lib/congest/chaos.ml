(* Composed chaos storms: every fault class the repository models —
   message loss, duplication, reordering, slowdown, wire corruption,
   crash-recovery, permanent fail-stop and edge churn — driven from one
   seeded storm description and judged by the centralized Oracle.

   The storm splits along the repository's two fault planes.  The
   float-time transient plane (loss / duplication / slowdown / reorder /
   crash-recovery windows / per-copy garbling) compiles to a Faults.spec
   and is recovered by Async.run_reliable's ack/retransmit layer, so a
   message-level algorithm's final states remain bit-identical to the
   fault-free synchronous run.  The round-time permanent plane (fail-stop
   kills, edge cuts) compiles to an Engine.Churn schedule plus an
   Engine.Corrupt.spec and is survived — not masked — by the maintenance
   protocols (Repair, Serve), whose heartbeat/retry machinery tolerates
   detected-and-dropped frames; there the judge is the eventual-quality
   oracle over the survivors. *)

open Kdom_graph

type storm = {
  flip : float;
  burst : int;
  truncate : float;
  drop : float;
  duplicate : float;
  slow : float;
  slow_factor : float;
  reorder : bool;
  crashes : int;
  kills : int;
  cuts : int;
  ramp : (int * float) list;
  bursts : int;
  quiescence : int;
}

let calm =
  {
    flip = 0.;
    burst = 1;
    truncate = 0.;
    drop = 0.;
    duplicate = 0.;
    slow = 0.;
    slow_factor = 10.;
    reorder = true;
    crashes = 0;
    kills = 0;
    cuts = 0;
    ramp = [];
    bursts = 2;
    quiescence = 8;
  }

let drizzle =
  { calm with flip = 1e-4; drop = 0.02; duplicate = 0.02; crashes = 1 }

let squall =
  {
    calm with
    flip = 1e-3;
    burst = 2;
    truncate = 1e-3;
    drop = 0.05;
    duplicate = 0.05;
    slow = 0.1;
    crashes = 2;
    kills = 1;
    cuts = 2;
    bursts = 3;
  }

let hurricane =
  {
    calm with
    flip = 1e-2;
    burst = 3;
    truncate = 5e-3;
    drop = 0.15;
    duplicate = 0.1;
    slow = 0.2;
    crashes = 3;
    kills = 2;
    cuts = 4;
    ramp = [ (0, 1.0); (16, 2.0) ];
    bursts = 4;
    quiescence = 10;
  }

let presets =
  [ ("calm", calm); ("drizzle", drizzle); ("squall", squall);
    ("hurricane", hurricane) ]

let storm_of_name name =
  match List.assoc_opt (String.lowercase_ascii name) presets with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Chaos.storm_of_name: unknown storm %S (expected %s)"
           name
           (String.concat " | " (List.map fst presets)))

let prob what p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Chaos: %s probability %g outside [0, 1]" what p)

let validate s =
  prob "flip" s.flip;
  prob "truncate" s.truncate;
  prob "drop" s.drop;
  prob "duplicate" s.duplicate;
  prob "slow" s.slow;
  if s.burst < 1 then invalid_arg "Chaos: burst < 1";
  if s.slow_factor < 1. then invalid_arg "Chaos: slow_factor < 1";
  if s.crashes < 0 || s.kills < 0 || s.cuts < 0 then
    invalid_arg "Chaos: negative fault count";
  if s.bursts < 1 then invalid_arg "Chaos: bursts < 1";
  if s.quiescence < 1 then invalid_arg "Chaos: quiescence < 1";
  (* the ramp shape is Corrupt's to judge *)
  Engine.Corrupt.validate
    (Engine.Corrupt.make ~flip:s.flip ~burst:s.burst ~truncate:s.truncate
       ~ramp:s.ramp ~seed:0 ())

(* ------------------------------------------------------------------ *)
(* Lowering a storm onto the two fault planes *)

let corrupt_of_storm s ~seed =
  if s.flip = 0. && s.truncate = 0. then None
  else
    Some
      (Engine.Corrupt.make ~flip:s.flip ~burst:s.burst ~truncate:s.truncate
         ~ramp:s.ramp ~seed ())

(* [count] distinct values in [0, n), deterministically in [rng]. *)
let distinct rng ~n ~count what =
  if count > n then
    invalid_arg (Printf.sprintf "Chaos: %d %s requested, only %d exist" count what n);
  let all = Array.init n (fun i -> i) in
  Rng.shuffle rng all;
  Array.to_list (Array.sub all 0 count)

let faults_of_storm g s ~seed =
  validate s;
  let rng = Rng.create (seed + 0x5eed) in
  let crashes =
    (* non-overlapping crash-recovery windows over distinct nodes: node i
       goes down at 0.5 + 2i and recovers four delay units later, so the
       retransmission layer always gets through eventually *)
    List.mapi
      (fun i node ->
        let at = 0.5 +. (2.0 *. float_of_int i) in
        { Faults.node; at; recover = Some (at +. 4.0) })
      (distinct rng ~n:(Graph.n g) ~count:s.crashes "crashes")
  in
  {
    Faults.link =
      {
        Faults.drop = s.drop;
        duplicate = s.duplicate;
        slow = s.slow;
        slow_factor = s.slow_factor;
      };
    overrides = [];
    reorder = s.reorder;
    crashes;
    churn = [];
    seed;
    corrupt = corrupt_of_storm s ~seed:(seed + 1);
  }

let churn_of_storm g s ~seed =
  validate s;
  let rng = Rng.create (seed + 0xc1a05) in
  let kills = distinct rng ~n:(Graph.n g) ~count:s.kills "kills" in
  let cuts =
    List.map
      (fun i ->
        let e = Graph.edge g i in
        (e.Graph.u, e.Graph.v))
      (distinct rng ~n:(Graph.m g) ~count:s.cuts "cuts")
  in
  Faults.churn_script g ~seed:(seed + 1) ~bursts:s.bursts
    ~quiescence:s.quiescence ~arrivals:[] ~insertions:[] ~cuts ~crashes:kills
    ~departs:[] ()

(* ------------------------------------------------------------------ *)
(* Verdicts *)

type case =
  | Case :
      string * int * (unit -> 'st Engine.ealgorithm) * ('st array -> unit)
      -> case

type verdict = {
  v_name : string;
  v_pulses : int;
  v_frames : int;
  v_retransmits : int;
  v_dropped : int;
  v_duplicated : int;
  v_corrupted : int;
  v_crash_dropped : int;
  v_crashed : int;
  v_injected : int;
  v_detected : int;
  v_truncated : int;
}

let pp_verdict ppf v =
  Format.fprintf ppf
    "@[<v>%s: quiescent after %d pulses@,\
     frames %d  retransmits %d  dropped %d  duplicated %d  crash-dropped %d  \
     crashed %d@,\
     corruption: injected %d  detected %d  truncated %d  rejected %d@]"
    v.v_name v.v_pulses v.v_frames v.v_retransmits v.v_dropped v.v_duplicated
    v.v_crash_dropped v.v_crashed v.v_injected v.v_detected v.v_truncated
    v.v_corrupted

exception Diverged of { what : string; detail : string }

let fail what fmt =
  Printf.ksprintf (fun detail -> raise (Diverged { what; detail })) fmt

let tally_of = function
  | None -> (0, 0, 0)
  | Some (c : Engine.Corrupt.spec) ->
      Engine.Corrupt.
        (c.tally.injected, c.tally.detected, c.tally.truncated)

(* No corrupted frame may reach algorithm code: on the synchronous plane
   every injected garble must be detected (or be a truncation, which is
   always detected).  A 2^-16 CRC collision would break the identity —
   seeds are chosen so none occurs; a storm seed that does collide is a
   finding, not a flake, and the message says so. *)
let check_tally what (injected, detected, truncated) =
  if injected <> detected + truncated then
    fail what
      "%d corrupted frames injected but only %d detected + %d truncated — a \
       garbled frame survived the CRC guard (2^-16 collision): pick another \
       storm seed"
      injected detected truncated

(* ------------------------------------------------------------------ *)
(* Message-level algorithms: storm masked by the reliable link layer *)

let run_message ?(max_delay = 1.0) ~seed ~storm g
    (Case (name, max_words, mk, oracle)) =
  validate storm;
  let what = "chaos/" ^ name in
  (* fault-free synchronous baseline *)
  let sync_states, _ = Runtime.run ~max_words g (mk ()) in
  let expect_same stage states =
    if states <> sync_states then
      fail what "%s diverged from the fault-free synchronous baseline" stage
  in
  (* the guard word changes frames on the wire, never the algorithm:
     guarded executions agree bit for bit on 1, 2 and 4 domains and under
     the independent reference simulator *)
  List.iter
    (fun d ->
      expect_same
        (Printf.sprintf "guarded %d-domain run" d)
        (fst (Runtime.run ~max_words ~guard:true ~domains:d g (mk ()))))
    [ 1; 2; 4 ];
  expect_same "guarded reference run"
    (fst (Runtime.run_reference ~max_words ~guard:true g (mk ())));
  (* the composed storm, recovered by ack/retransmit *)
  let spec = faults_of_storm g storm ~seed in
  let states, frep =
    Async.run_reliable ~rng:(Rng.create seed) ~faults:spec ~max_delay
      ~max_words g (mk ())
  in
  expect_same "storm run" states;
  oracle states;
  let injected, detected, truncated = tally_of spec.Faults.corrupt in
  (* every rejected copy is in the tally, and no garbled copy was
     dispatched: the only escape routes are detection (counted), a
     crashed receiver (a crash drop, like any other frame), and copies
     still in flight when the last node quiesced *)
  if frep.Async.corrupted <> detected then
    fail what "receiver rejected %d copies but the tally detected %d"
      frep.Async.corrupted detected;
  if injected < detected then
    fail what "detected %d garbled copies out of %d injected" detected injected;
  {
    v_name = name;
    v_pulses = frep.Async.report.Async.pulses;
    v_frames = frep.Async.frames;
    v_retransmits = frep.Async.retransmits;
    v_dropped = frep.Async.dropped;
    v_duplicated = frep.Async.duplicated;
    v_corrupted = frep.Async.corrupted;
    v_crash_dropped = frep.Async.crash_dropped;
    v_crashed = 0;
    v_injected = injected;
    v_detected = detected;
    v_truncated = truncated;
  }

(* ------------------------------------------------------------------ *)
(* Maintenance protocols: storm survived under churn + corruption *)

(* The verdict's traffic columns, read off the trace that recorded every
   round of the run(s). *)
let traffic_of tr =
  let sum = Trace.totals tr in
  ( List.length (Trace.rounds tr),
    sum.(Engine.Sink.delivered),
    sum.(Engine.Sink.dropped),
    sum.(Engine.Sink.corrupted),
    sum.(Engine.Sink.crashed) )

let run_repair ?(beta = 3) ?(lease = 2) ~seed ~storm g plan =
  validate storm;
  let what = "chaos/repair" in
  let n = Graph.n g in
  let script = churn_of_storm g storm ~seed in
  (* generous stabilization window, as in the repair qcheck suite: doomed
     adoptions cost one extra lease cycle each before takeover wins *)
  let horizon = script.Faults.script_last + (20 * ((lease * beta) + n)) in
  let cfg =
    { Repair.plan; beta; lease; dmax = Repair.default_dmax plan; horizon }
  in
  let corrupt = corrupt_of_storm storm ~seed:(seed + 1) in
  let run_engine domains =
    Engine.with_domains domains (fun () ->
        let e = Engine.create g in
        let churn = Engine.Churn.compile e script.Faults.script_events in
        let tr = Trace.create () in
        let states, _ = Repair.run ~trace:tr ~churn ?corrupt e cfg in
        (states, churn, tr))
  in
  let states, churn, tr = run_engine 1 in
  let tally = tally_of corrupt in
  check_tally what tally;
  (* four shards reach identical states and identical corruption
     verdicts (decisions are keyed by the port map, not by iteration
     order) *)
  let states4, _, _ = run_engine 4 in
  if states4 <> states then fail what "4-domain run diverged";
  if tally_of corrupt <> tally then
    fail what "4-domain corruption tally diverged";
  (* and so does the reference simulator *)
  let rstates, _ =
    Runtime.run_reference ~max_words:Repair.max_words
      ~max_rounds:(horizon + 2) ~churn ?corrupt g
      (Repair.algorithm g cfg)
  in
  if rstates <> states then fail what "reference run diverged";
  if tally_of corrupt <> tally then
    fail what "reference corruption tally diverged";
  (* the eventual-quality oracle over the survivors *)
  let rep = Repair.decode states in
  let alive = Engine.Churn.final_alive churn in
  let dead_edges = Engine.Churn.final_edges_down churn in
  Array.iteri
    (fun v a ->
      if a && rep.Repair.dominator_of.(v) < 0 then
        fail what "surviving node %d is still orphaned" v)
    alive;
  Oracle.expect_ok what
    (Oracle.eventual_k_domination g ~alive ~dead_edges
       ~centers:(Repair.live_centers rep alive) ~bound:n);
  let injected, detected, truncated = tally in
  let pulses, frames, dropped, corrupted, crashed = traffic_of tr in
  ( {
      v_name = "repair";
      v_pulses = pulses;
      v_frames = frames;
      v_retransmits = 0;
      v_dropped = dropped;
      v_duplicated = 0;
      v_corrupted = corrupted;
      v_crash_dropped = 0;
      v_crashed = crashed;
      v_injected = injected;
      v_detected = detected;
      v_truncated = truncated;
    },
    rep )

let run_serve ?(beta = 3) ?(lease = 2) ~seed ~storm g (cfg : Serve.config) =
  validate storm;
  let what = "chaos/serve" in
  Serve.validate g cfg;
  let script = churn_of_storm g storm ~seed in
  let corrupt = corrupt_of_storm storm ~seed:(seed + 1) in
  let dmax = Array.fold_left max 0 cfg.Serve.plan.Repair.depth in
  let settle =
    script.Faults.script_last
    + (2 * ((2 * beta) + (3 * dmax) + 12))
    + Graph.n g
  in
  let tr = Trace.create () in
  let h =
    Serve.with_repair ~trace:tr ?corrupt ~beta ~lease ~settle
      (Engine.create g) cfg ~churn:script.Faults.script_events
  in
  let tally = tally_of corrupt in
  (* with_repair zeroes the tally per phase; the invariant still holds
     for the last phase, and the trace's corrupted counter covers all *)
  check_tally what tally;
  Oracle.expect_ok what (Serve.check_handover g cfg h);
  let injected, detected, truncated = tally in
  let pulses, frames, dropped, corrupted, crashed = traffic_of tr in
  ( {
      v_name = "serve";
      v_pulses = pulses;
      v_frames = frames;
      v_retransmits = 0;
      v_dropped = dropped;
      v_duplicated = 0;
      v_corrupted = corrupted;
      v_crash_dropped = 0;
      v_crashed = crashed;
      v_injected = injected;
      v_detected = detected;
      v_truncated = truncated;
    },
    h )
