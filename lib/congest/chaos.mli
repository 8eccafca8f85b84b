(** Composed chaos storms over every fault class in the repository.

    A {!storm} is one seeded description of a hostile network: wire
    corruption (per-word bit flips with burst garbling, frame
    truncation), message loss, duplication, reordering, slowdown,
    transient crash-recovery windows, permanent fail-stop kills and edge
    cuts — with an intensity ramp and quiescent windows.  The module
    lowers a storm onto the repository's two fault planes and judges the
    outcome with the centralized {!Oracle}:

    - {e Masked} ({!run_message}): message-level algorithms run under
      {!Async.run_reliable}, whose CRC guard + ack/retransmit layer turns
      the storm back into a reliable network — final states must be
      bit-identical to the fault-free synchronous {!Runtime.run}, and the
      per-algorithm oracle must accept them.  The same run cross-checks
      that guarded runs on 1, 2 and 4 domains and under the reference
      simulator agree on the benign network, so the guard word itself is
      covered by the differential.
    - {e Survived} ({!run_repair}, {!run_serve}): the maintenance
      protocols take the round-time plane head on — permanent churn via
      {!Engine.Churn} plus engine-level corruption via
      [Engine.Corrupt] — relying on heartbeats/retries, not
      retransmission, to outlive detected-and-dropped frames.  The judge
      is the eventual-quality oracle over the survivors
      ({!Oracle.eventual_k_domination}, {!Serve.check_handover}), plus a
      1-domain / 4-domain / reference bit-identity differential for
      {!run_repair}.

    Everything is deterministic in [(storm, seed)]: the corruption plane
    draws from {!Engine.Corrupt.decide} hashes keyed by the port map, the
    loss plane from dedicated {!Kdom_graph.Rng} streams, so a failing
    storm replays exactly. *)

open Kdom_graph

type storm = {
  flip : float;  (** per-wire-word garble probability *)
  burst : int;  (** consecutive wire words garbled per hit; >= 1 *)
  truncate : float;  (** per-frame truncation probability *)
  drop : float;  (** per-frame loss probability (async plane) *)
  duplicate : float;  (** per-frame duplication probability *)
  slow : float;  (** per-delivery slowdown probability *)
  slow_factor : float;  (** delay multiplier for slowed deliveries; >= 1 *)
  reorder : bool;  (** allow frames to overtake each other *)
  crashes : int;
      (** transient crash-recovery windows (async plane): distinct nodes,
          staggered non-overlapping windows, every node recovers *)
  kills : int;  (** permanent fail-stops (churn plane) *)
  cuts : int;  (** undirected edge cuts (churn plane) *)
  ramp : (int * float) list;
      (** corruption intensity schedule, {!Engine.Corrupt.spec}[.ramp] *)
  bursts : int;  (** churn bursts the kills/cuts are dealt into; >= 1 *)
  quiescence : int;  (** quiet rounds after each churn burst; >= 1 *)
}

val calm : storm
(** The identity storm: every probability and count zero — a reliable
    network.  The base record the presets are built from. *)

val drizzle : storm
(** Background noise: flips at 1e-4/word, 2% loss, 2% duplication, one
    transient crash. *)

val squall : storm
(** A serious weather event: flips at 1e-3/word in bursts of 2,
    truncations, 5% loss, slowdowns, two transient crashes, one permanent
    kill and two edge cuts over three churn bursts. *)

val hurricane : storm
(** The acceptance-grade composed storm: flips at 1e-2/word in bursts of
    3, 15% loss, an intensity ramp that doubles corruption from round 16,
    three transient crashes, two kills and four cuts over four bursts. *)

val presets : (string * storm) list
(** [(name, storm)] for the CLI and the bench: calm, drizzle, squall,
    hurricane. *)

val storm_of_name : string -> storm
(** Case-insensitive preset lookup; [Invalid_argument] on an unknown
    name, listing the presets. *)

val validate : storm -> unit
(** [Invalid_argument] on probabilities outside [0, 1], [burst < 1],
    [slow_factor < 1], negative fault counts, [bursts < 1],
    [quiescence < 1], or a ramp {!Engine.Corrupt.validate} rejects. *)

(** {1 Lowering} *)

val corrupt_of_storm : storm -> seed:int -> Engine.Corrupt.spec option
(** The corruption plane: [None] when [flip] and [truncate] are both
    zero, so a corruption-free storm leaves every executor on its
    unguarded fast path. *)

val faults_of_storm : Graph.t -> storm -> seed:int -> Faults.spec
(** The float-time transient plane for {!Async.run_reliable}: uniform
    link parameters, [crashes] distinct nodes with staggered
    non-overlapping recovery windows (crash [i] at [0.5 + 2i], recovery 4
    delay units later), and the corruption plane seeded at [seed + 1].
    Deterministic in [seed]; [Invalid_argument] if more crashes are
    requested than there are nodes. *)

val churn_of_storm : Graph.t -> storm -> seed:int -> Faults.script
(** The round-time permanent plane for the synchronous engine: [kills]
    distinct fail-stops and [cuts] distinct undirected edge cuts, dealt
    into [bursts] bursts separated by [quiescence]-round quiet windows
    ({!Faults.churn_script}).  Deterministic in [seed];
    [Invalid_argument] if more kills (cuts) are requested than there are
    nodes (edges). *)

(** {1 Judged runs} *)

type case =
  | Case :
      string * int * (unit -> 'st Engine.ealgorithm) * ('st array -> unit)
      -> case
      (** One algorithm under test: name, word budget, a fresh instance
          per execution (mutable closures must not leak between
          backends), and an oracle over the decoded final states. *)

type verdict = {
  v_name : string;
  v_pulses : int;  (** pulses (async) or engine rounds to quiescence *)
  v_frames : int;  (** physical frames offered / delivered *)
  v_retransmits : int;  (** async plane only; 0 for engine runs *)
  v_dropped : int;
  v_duplicated : int;
  v_corrupted : int;  (** garbled frames rejected by the CRC guard *)
  v_crash_dropped : int;  (** frames that arrived at a crashed node *)
  v_crashed : int;  (** nodes fail-stopped by the churn plane *)
  v_injected : int;  (** frames the storm garbled or truncated *)
  v_detected : int;  (** garbles the guard word caught *)
  v_truncated : int;  (** truncations — always detected structurally *)
}
(** What the storm did and what the defenses caught.  The integrity
    invariant — {e zero corrupted frames delivered to algorithm code} —
    is checked by the runners, not left to the caller. *)

val pp_verdict : Format.formatter -> verdict -> unit

exception Diverged of { what : string; detail : string }
(** An executor differential or integrity invariant failed — the storm
    found a real bug (or a 2^-16 CRC collision; the detail says which). *)

val run_message :
  ?max_delay:float -> seed:int -> storm:storm -> Graph.t -> case -> verdict
(** Execute the case's algorithm three ways and require bit-identical
    final states throughout: fault-free synchronous baseline; guarded
    1/2/4-domain / reference differential; then the full storm
    under {!Async.run_reliable} ([max_delay] defaults to 1.0).  The
    case's oracle judges the storm states; the corruption tally must
    account for every rejected copy.  Raises {!Diverged} on any
    mismatch. *)

val run_repair :
  ?beta:int ->
  ?lease:int ->
  seed:int ->
  storm:storm ->
  Graph.t ->
  Repair.plan ->
  verdict * Repair.report
(** Run the {!Repair} maintenance protocol over the storm's churn plane
    with engine-level corruption, on 1 and 4 domains and under the
    reference simulator — states and corruption tallies must be
    bit-identical.  Every surviving node must end dominated and
    {!Oracle.eventual_k_domination} must hold over the survivors.
    [beta] defaults to 3, [lease] to 2; the horizon is sized from the
    churn script as in the repair test suite.  Raises {!Diverged} /
    [Failure] on a violated invariant. *)

val run_serve :
  ?beta:int ->
  ?lease:int ->
  seed:int ->
  storm:storm ->
  Graph.t ->
  Serve.config ->
  verdict * Serve.handover
(** Run the crash-mid-traffic composition ({!Serve.with_repair}) over
    the storm's churn plane with engine-level corruption and judge it
    with {!Serve.check_handover}: every request from a surviving,
    re-dominated origin reaches a terminal outcome across the two
    phases.  The settle window is sized from the churn script and the
    plan depth.  Raises {!Diverged} / [Failure] on a violation. *)
