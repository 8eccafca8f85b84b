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

    This module is a thin compatibility wrapper: {!run} executes on the
    port-indexed mailbox engine ({!Engine}), and all types are shared with
    it.  The original list-based simulator is kept as {!run_reference} —
    the executable specification the engine is differentially tested
    against. *)

open Kdom_graph

type payload = Engine.payload
(** Message contents, in words.  A word models [Theta(log n)] bits — enough
    for a node id, a depth, or an edge weight (weights are polynomial in
    [n], §1.2).  The runtime rejects payloads longer than
    [max_words]. *)

type inbox = Engine.inbox
(** The legacy list shape of an inbox — [(neighbor, payload)] ordered by
    sender id (ascending).  [step] receives an {!Engine.Inbox.t} view; see
    {!Engine.list_step}. *)

type wake = Engine.wake = Always | Next | At of int | OnMessage
(** Re-export of the engine's wake-up hints; see {!Engine.wake}. *)

type 'st algorithm = 'st Engine.algorithm = {
  init : Graph.t -> int -> 'st;
    (** Initial state of each node. A node knows [n], its own id, its
        incident edges and their weights — nothing else. *)
  step :
    Graph.t -> round:int -> node:int -> 'st -> Engine.Inbox.t -> 'st * (int * payload) list;
    (** One synchronous step: consume the inbox view, return the new state
        and the outbox as [(neighbor, payload)] pairs. *)
  halted : 'st -> bool;
    (** A halted node no longer steps; it is an error for a halted node to
        receive a message. *)
  wake : 'st -> wake;
    (** Scheduling hint; {!Engine.always} is always sound.  Honored by
        {!run} (the engine); ignored by {!run_reference}, which is the
        dense schedule the hints must be indistinguishable from. *)
}

type 'st ealgorithm = 'st Engine.ealgorithm = {
  einit : Graph.t -> int -> 'st;
  estep :
    Graph.t -> round:int -> node:int -> 'st -> Engine.Inbox.t -> Engine.Emit.t -> 'st;
  ehalted : 'st -> bool;
  ewake : 'st -> wake;
}
(** Re-export of the engine's emit-native algorithm shape: [estep] writes
    frames directly into the packed send arena via {!Engine.Emit} instead
    of returning an outbox list.  See {!Engine.ealgorithm}. *)

type stats = Engine.stats = {
  rounds : int;         (** rounds executed until quiescence *)
  messages : int;       (** total messages delivered *)
  max_inflight : int;   (** peak messages in a single round *)
}

exception Round_limit_exceeded of int
exception Congestion_violation of string
(** Raised when a [step] tries to send two messages over one edge in one
    round, sends to a non-neighbor, or exceeds [max_words].  (Shared with
    {!Engine}.) *)

val run :
  ?max_rounds:int -> ?max_words:int -> ?sink:Engine.Sink.t -> ?degrade:bool ->
  ?guard:bool -> ?corrupt:Engine.Corrupt.spec ->
  ?domains:int -> ?partition:int array ->
  Graph.t -> 'st algorithm -> 'st array * stats
(** Execute to quiescence on the mailbox engine. [max_rounds] defaults to
    [Engine.default_max_rounds n]; [max_words] defaults to
    [Engine.default_max_words n] (4 for any practical [n]); [sink]
    defaults to {!Engine.Sink.null}; [degrade] (default [false]) ignores
    wake hints and runs the dense legacy schedule; [domains] (default
    [!Engine.default_domains]) is the number of shards stepped on as many
    domains, with [partition] as the optional shard assignment — results
    are bit-identical at every domain count, see {!Engine.exec}.

    Robustness note: this runtime (like {!Engine}) models perfectly
    reliable links.  To execute the same [algorithm] value on a lossy,
    crashy network — and check that the final states are nevertheless
    bit-identical — see {!Faults}, {!Async.run_reliable} and the output
    invariant checkers in {!Oracle}. *)

val run_reference :
  ?max_rounds:int -> ?max_words:int -> ?sink:Engine.Sink.t ->
  ?churn:Engine.Churn.t ->
  ?guard:bool -> ?corrupt:Engine.Corrupt.spec ->
  Graph.t -> 'st algorithm -> 'st array * stats
(** The original list-based simulator — O(deg) neighbor validation, a
    scratch table per step, an O(n) sweep per round, wake hints ignored.
    Semantically identical to {!run}; kept as the reference for
    differential tests (its [sink] reports [skipped = 0], [woken = 0] —
    the projection the sparse scheduler's round records must agree with
    modulo those counters) and as the baseline for the engine throughput
    bench.  Do not use on large instances.

    [churn] applies the same fail-stop / edge-down schedule as
    [Engine.exec ?churn] with identical semantics (the schedule is reset
    on entry, so one compiled value can drive an engine run and a
    reference run in sequence).  The schedule must have been compiled
    against an engine for the same graph.

    [guard] and [corrupt] mirror [Engine.exec ?guard ?corrupt]: with the
    guard on, every frame is charged one extra CRC wire word in the bit
    accounting, and a [corrupt] spec applies the engine's deterministic
    wire-corruption model — the verdicts are keyed on the engine's
    out-port slot ids (the reference builds the same port map), so both
    simulators drop, truncate, or deliver the same CRC-colliding garbled
    frames bit-identically. *)
