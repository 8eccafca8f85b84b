(** Synchronous CONGEST-model message-passing simulator.

    The paper's model (§1.2): a synchronous network where each message
    carries [O(log n)] bits and a node may send at most one message over
    each incident edge per time unit.  This runtime executes a per-node
    algorithm under exactly those constraints and reports the quantities the
    paper measures: the number of rounds and (for the message-complexity
    ablation) the number of messages.

    Timing convention: in round [t >= 0] every node receives the messages
    sent in round [t-1], runs its [step], and emits at most one message per
    incident edge.  The run stops when every node has halted and no message
    is in flight, or when [max_rounds] is exceeded (an error — the caller
    sets [max_rounds] from the bound it is trying to validate).

    This module holds the two one-shot executors of an
    {!Engine.ealgorithm}; every type they use is {!Engine}'s.  {!run}
    executes on the port-indexed mailbox engine.  The original list-based
    simulator is kept as {!run_reference} — the executable specification
    the engine is differentially tested against.  Wake hints are honored
    by {!run} and ignored by {!run_reference}, which is the dense schedule
    the hints must be indistinguishable from. *)

open Kdom_graph

val run :
  ?max_rounds:int -> ?max_words:int -> ?sink:Engine.Sink.t ->
  ?guard:bool -> ?corrupt:Engine.Corrupt.spec ->
  ?domains:int -> ?partition:int array ->
  Graph.t -> 'st Engine.ealgorithm -> 'st array * Engine.stats
(** [run g a] is [Engine.exec_emit (Engine.create g) a]: execute to
    quiescence on a fresh mailbox engine.  [max_rounds] defaults to
    [Engine.default_max_rounds n]; [max_words] defaults to
    [Engine.default_max_words n] (4 for any practical [n]); [sink]
    defaults to {!Engine.Sink.null}; [domains] (default: the count set
    by {!Engine.with_domains}, else 1) is the number of shards stepped on
    as many domains, with [partition] as the optional shard assignment —
    results are bit-identical at every domain count, see
    {!Engine.exec_emit}.  To run several algorithms on one graph, or
    with a {!Engine.Churn} schedule, build the engine once and call
    {!Engine.exec_emit}.

    Robustness note: this runtime (like {!Engine}) models perfectly
    reliable links.  To execute the same node program on a lossy,
    crashy network — and check that the final states are nevertheless
    bit-identical — see {!Faults}, {!Async.run_reliable} and the output
    invariant checkers in {!Oracle}. *)

val run_reference :
  ?max_rounds:int -> ?max_words:int -> ?sink:Engine.Sink.t ->
  ?churn:Engine.Churn.t ->
  ?guard:bool -> ?corrupt:Engine.Corrupt.spec ->
  Graph.t -> 'st Engine.ealgorithm -> 'st array * Engine.stats
(** The original list-based simulator — O(deg) neighbor validation, a
    scratch table per step, an O(n) sweep per round, wake hints ignored.
    Each node steps through one {!Engine.recorder} built for the run, so
    the frames a step emits become the [(dst, payload)] list this
    simulator delivers; the word budget is enforced at each put, as on
    the engine.
    Semantically identical to {!run}; kept as the reference for
    differential tests (its [sink] reports [skipped = 0], [woken = 0] —
    the projection the sparse scheduler's round records must agree with
    modulo those counters) and as the baseline for the engine throughput
    bench.  Do not use on large instances.

    [churn] applies the same fail-stop / edge-down schedule as
    [Engine.exec_emit ?churn] with identical semantics (the schedule is reset
    on entry, so one compiled value can drive an engine run and a
    reference run in sequence).  The schedule must have been compiled
    against an engine for the same graph.

    [guard] and [corrupt] mirror [Engine.exec_emit ?guard ?corrupt]: with the
    guard on, every frame is charged one extra CRC wire word in the bit
    accounting, and a [corrupt] spec applies the engine's deterministic
    wire-corruption model — the verdicts are keyed on the engine's
    out-port slot ids (the reference builds the same port map), so both
    simulators drop, truncate, or deliver the same CRC-colliding garbled
    frames bit-identically. *)
