(** Port-indexed mailbox engine: the CONGEST simulation core.

    The engine precomputes a CSR {e port map} for a graph — every directed
    edge [(u, v)] gets a stable integer slot — and delivers messages through
    two swapped, slot-indexed {e packed frame arenas}: each buffer direction
    is one flat [Bytes] with a fixed stride per slot, frames encoded as
    16-bit model words by {!Codec}.  Compared to the list-based reference
    runtime ({!Runtime.run_reference}) this gives:

    - O(log deg) neighbor validation, duplicate-send detection and width
      checks per outbound message (binary search of the sender's sorted CSR
      segment plus a slot-occupancy test), instead of a per-message edge
      search and a per-step scratch table — and no O(m) hash table;
    - zero per-round allocation in the delivery machinery: inboxes are a
      zero-copy {!Inbox.t} view over the arena, so the hot path allocates
      only what [estep] itself allocates — and the {!Emit} send path is
      allocation-free too: frames are encoded straight into the
      destination slot, no payload array, no cons cell;
    - {e measured} congestion accounting: every frame's width is the wire
      length its values actually encode to ({!Codec.measured_bits}), so
      word budgets and per-round bit counters
      ({!Sink.bits}) report genuine O(log n)-bit
      model cost, not declared array lengths;
    - {e event-driven rounds}: with {!wake} hints, a round costs
      O(receivers + woken + |always|), not O(live) — a node is stepped
      only when it received a message, its self-scheduled timer fired, it
      declared [Always], or it is in the init round.  One schedule runs
      every round: the merge of the sorted [Always] list with a sorted
      frontier of woken timers and the other receivers.  Quiescent
      regions of the graph cost nothing, so long sparse executions (token
      walks, deep pipelined convergecasts, fixed-schedule phase windows)
      no longer pay an O(n) sweep every round;
    - a pluggable instrumentation {!Sink} observing every delivery round
      and, optionally, every message.

    Every run goes through one round loop, which steps the nodes as [d]
    shards ([d = 1]: one shard on the calling domain) and accepts one
    algorithm shape, {!ealgorithm}: a node reads its inbox view, updates
    its state and emits at most one frame per incident edge through
    {!Emit}.  No other node-program shape exists.

    Semantics are identical to the reference runtime: same round/timing
    convention, same inbox ordering (sender-ascending — see below), same
    [stats], same [Congestion_violation] cases with identical messages.
    The differential tests in [test_engine_diff.ml] check this on all eight
    message-level algorithms, with wake hints both honored and replaced by
    {!always}, at 1, 2 and 4 domains.

    {b One way to run.}  {!exec_emit} executes on a prebuilt engine;
    {!Runtime.run} is its one-shot form on a fresh engine, and
    {!Runtime.run_reference} and {!Async.run_reliable} are the other two
    executors.  Each takes an optional raw {!Sink}; the algorithm runners
    of [lib/core] take a {!Trace} instead ({!Trace.observe}).  The dense
    schedule is data, not a switch: [{ a with ewake = always }].

    {b Inbox ordering guarantee.}  Messages delivered to a node in a round
    are presented in strictly increasing sender id, regardless of the order
    in which senders emitted them.  Algorithms may rely on this (e.g.
    deterministic tie-breaking in [Leader] upgrades). *)

open Kdom_graph

type payload = int array
(** Message contents, in words.  A word models [Theta(log n)] bits — enough
    for a node id, a depth, or an edge weight (weights are polynomial in
    [n], §1.2 of the paper). *)

(** Zero-copy view over the engine's reusable inbox arena: the messages
    delivered to the node being stepped, in strictly increasing sender id,
    each read in place with {!read}.

    {b Lifetime.}  The engine reuses one arena for every step, so a view
    is only valid for the duration of the [estep] call it was passed to.  Retain copies of what you read,
    never the [t] itself. *)
module Inbox : sig
  type t

  val length : t -> int
  val is_empty : t -> bool

  val sender : t -> int -> int
  (** [sender ib i] is the sender id of the [i]-th message ([i < length]).
      Ascending in [i]. *)

  val words : t -> int -> int
  (** [words ib i] is the logical word count of the [i]-th frame, without
      decoding it. *)

  val read : t -> int -> Codec.reader
  (** [read ib i] positions a shared decoder on the [i]-th frame and
      returns it: zero-copy, zero-allocation access to the packed words
      via {!Codec.get}.  The reader is shared by the whole view — a
      subsequent [read] repositions it, so finish one frame before
      starting the next. *)

  val of_list : (int * payload) list -> t
  (** Build a standalone view from [(sender, payload)] pairs (for the
      executors that keep their own mailboxes, {!Runtime.run_reference}
      and {!Async.run_reliable}; the result owns fresh arrays and has no
      lifetime restriction).  The list must already be sender-ascending. *)
end

(** Wake-up hints: when must this node be stepped again?  The engine
    consults [ewake] after every [estep] (never on the untouched init state);
    the latest hint replaces any earlier one, and a halted node's pending
    wake-up is discarded.  In every mode a delivered message steps the node
    — the hint only controls whether it {e also} steps on message-free
    rounds.  Round 0 steps every live node regardless. *)
type wake =
  | Always
      (** Step every round while live — the legacy dense schedule, and the
          default ({!always}): any algorithm declaring it runs
          bit-identically to the pre-event-driven engine. *)
  | Next  (** Step next round even if no message arrives. *)
  | At of int
      (** Step at that absolute round.  A round [<=] the current one
          schedules nothing (equivalent to [OnMessage]). *)
  | OnMessage
      (** Step only on message arrival.  Sound for any message-driven
          stage: in CONGEST a node with an empty inbox and no timer has
          exactly the information it had last round, so stepping it could
          only repeat a state transition it already made (DESIGN.md §9). *)

(** The allocation-free send path, and the only one.  An emitter is a
    reusable cursor owned by a shard of the round loop: {!start} checks
    the destination (non-neighbor, duplicate edge) and positions a shared
    {!Codec.writer} directly on the destination slot's arena region; the
    algorithm {!Codec.put}s the frame's words (the word budget is enforced
    per put — exceeding it raises [Congestion_violation]); {!commit}
    publishes the frame.  Exactly one frame may be open at a time, and
    every started frame must be committed before [estep] returns.

    [frame1]..[frame4] emit fixed-shape frames without any closure;
    {!send} is the [emit ~dst (fun w -> ...)] flavor (the closure itself
    may allocate — the fixed-arity helpers are what keep hot kernels at
    zero words per round). *)
module Emit : sig
  type t

  val start : t -> dst:int -> Codec.writer
  (** Open a frame to neighbor [dst] and return the writer positioned on
      its slot. *)

  val commit : t -> unit
  (** Publish the open frame ([Invalid_argument] if none is open). *)

  val send : t -> dst:int -> (Codec.writer -> unit) -> unit
  (** [send t ~dst f] = [f (start t ~dst); commit t]. *)

  val frame1 : t -> dst:int -> int -> unit
  val frame2 : t -> dst:int -> int -> int -> unit
  val frame3 : t -> dst:int -> int -> int -> int -> unit
  val frame4 : t -> dst:int -> int -> int -> int -> int -> unit

  val broadcast1 : t -> int -> unit
  (** [broadcast1 t a] sends the one-word frame [|a|] to {e every}
      neighbor of the stepping node.  Semantically identical to
      [frame1 t ~dst:u a] over each neighbor [u] in ascending order, but
      the engine encodes the frame once and fans the bytes out over the
      node's contiguous out-port segment — no per-neighbor port lookup
      and no per-frame start/commit pair, so flood-style kernels pay
      near-[memcpy] cost per edge.  The usual rules apply: counts as one
      frame per edge for the once-per-edge check, each copy is metered at
      the frame's measured bits, and churn-dead ports are skipped.
      [Invalid_argument] if a frame is currently open. *)
end

type 'st ealgorithm = {
  einit : Graph.t -> int -> 'st;
  estep : Graph.t -> round:int -> node:int -> 'st -> Inbox.t -> Emit.t -> 'st;
      (** One synchronous step: consume the inbox view (prefer
          {!Inbox.read}), emit frames through the emitter, return the new
          state. *)
  ehalted : 'st -> bool;
      (** A halted node no longer steps; it is an error for a halted node
          to receive a message. *)
  ewake : 'st -> wake;
      (** Scheduling hint derived from the post-step state; see {!wake}.
          Use {!always} when unsure — it is always sound. *)
}
(** The node program: the one algorithm shape of the simulator, as in the
    paper's CONGEST model (§1.2) — each round a node reads its inbox,
    updates its state, and sends at most one O(log n)-bit frame per edge.
    [einit g v] is node [v]'s initial state (a node knows [n], its own id,
    its incident edges and their weights — nothing else).  Sends go
    through {!Emit}, so a steady-state step can run without allocating.
    Run with {!exec_emit}/{!Runtime.run}, {!Runtime.run_reference} or
    {!Async.run_reliable}. *)

val always : 'st -> wake
(** [always _ = Always] — the default wake hint; reproduces the legacy
    every-round schedule exactly. *)

type stats = {
  rounds : int;  (** rounds executed until quiescence *)
  messages : int;  (** total messages delivered *)
  max_inflight : int;  (** peak messages in a single round *)
}

exception Round_limit_exceeded of int

exception Congestion_violation of string
(** Raised when an [estep] tries to send two messages over one edge in one
    round, sends to a non-neighbor, exceeds the word budget, or a halted
    node receives a message. *)

exception Duplicate_edge of { src : int; dst : int }
(** Raised by {!create} when the graph presents two ports for the same
    directed edge.  {!Graph}'s public constructors reject multigraphs, so
    this guards hand-built adjacency: a duplicated port would otherwise be
    silently shadowed by the binary-search port map. *)

val default_max_words : int -> int
(** [default_max_words n] is the per-message word budget implied by the
    paper's [O(log n)]-bit message model: enough 16-bit model words to
    carry a node id plus constant slack, never below the historical
    default of 4.  Constant (= 4) for every [n] below [2^32]; grows as
    [Theta(log n / 16)] beyond, so the budget scales with the model rather
    than being a magic number. *)

val default_max_rounds : int -> int
(** [default_max_rounds n] = [10_000 + 100 * n] — the round (and, for the
    asynchronous executors, pulse) cap shared by every runtime in this
    library. *)

(** Instrumentation sinks: observability for every engine run.

    A sink is a pair of callbacks.  [on_message] fires for every message
    {e emitted} (at send time, before delivery); [on_round] fires at the
    end of every delivery round with aggregate counters.  Passing
    {!Sink.null} (the default) skips all callback dispatch on the hot
    path. *)
module Sink : sig
  (** {3 The counter table}

      Every per-round counter is one line of a single table: an index
      into {!round_info.counts}, a JSON key, and whether [span] and
      [summary] trace records carry its sum.  Record printers, the trace
      validator, span and summary sums, {!Metrics} totals and the
      per-shard merge all iterate the table, so adding a counter is one
      table line plus the code that produces its value (and a
      {!Trace.schema_version} bump with regenerated goldens). *)

  type counter = int
  (** An index into {!round_info.counts}, in [0, n_counters). *)

  val n_counters : int

  val key : counter -> string
  (** The counter's JSON key in [round], [span] and [summary] records. *)

  val summed : counter -> bool
  (** Whether [span] and [summary] records carry the counter's sum;
      [false] for the per-round-only {!receivers}, {!stepped} and
      {!sent}. *)

  (** The counters, in table order; each one's {!key} is its name here. *)

  val delivered : counter  (** messages delivered this round *)

  val words : counter  (** payload (logical) words delivered *)

  val bits : counter
  (** {e measured} wire bits delivered: the sum of {!Codec.measured_bits}
      over the delivered frames — the honest O(log n)-bit model cost as
      encoded, not as declared *)

  val receivers : counter  (** nodes with a non-empty inbox *)

  val stepped : counter  (** live nodes that executed [step] *)

  val skipped : counter
  (** live nodes the scheduler did {e not} step (no mail, no timer, not
      [Always]); always 0 on the dense schedule (every hint {!Always})
      and for the reference runtime *)

  val woken : counter
  (** nodes stepped because a [Next]/[At] timer fired (they may also have
      received mail); 0 on the dense schedule *)

  val sent : counter  (** messages emitted (deliver next round) *)

  val dropped : counter
  (** frames lost by a fault layer ({!Faults}) or routed onto a dead
      {!Churn} port or node *)

  val duplicated : counter  (** frames duplicated by a fault layer *)

  val retransmits : counter
  (** link-layer retransmissions ({!Async.run_reliable}) *)

  val corrupted : counter
  (** frames dropped at the recv path as integrity rejections — the guard
      word caught a garbled frame or a truncation was detected
      ({!Corrupt}, {!Faults}); distinct from [dropped], which counts
      losses *)

  val crashed : counter  (** nodes newly fail-stopped by {!Churn} *)

  val arrived : counter  (** dormant nodes brought online ({!Churn} [Arrive]) *)

  val departed : counter
  (** nodes gracefully leaving ({!Churn} [Depart]) — mechanically a
      fail-stop, accounted separately *)

  val inserted : counter
  (** reserved directed slots brought up ({!Churn} [Edge_add]) *)

  (** {3 Sinks} *)

  type round_info = {
    round : int;  (** the round that just executed *)
    counts : int array;
        (** [n_counters] values indexed by {!counter}.  Each record gets a
            fresh array that its producer never mutates afterwards, so a
            sink may keep it. *)
  }

  type t = {
    on_message : round:int -> src:int -> dst:int -> words:int -> unit;
    on_round : round_info -> unit;
    on_finish : unit -> unit;
        (** Fired once when the execution reaches quiescence (not on an
            abnormal exit).  Streaming sinks use it to flush. *)
  }

  val null : t
  (** The no-op sink; physical equality with [null] disables dispatch. *)

  val tee : t -> t -> t
  (** [tee a b] forwards every event to [a] then [b]. *)

  val counters : unit -> t * (unit -> round_info list)
  (** A sink accumulating per-round counters; the closure returns them in
      round order. *)

  val combine_round_info : round_info -> round_info -> round_info
  (** Associative, commutative merge of two views of the same round: the
      element-wise sum of the counts; the [round] fields must agree
      ([Invalid_argument] otherwise).  It is what makes
      {!counters}/{!activity} aggregation merge-safe: teeing sinks across
      shards and combining the per-round records is equivalent to a single
      sink observing the whole round. *)

  val empty_round_info : int -> round_info
  (** [empty_round_info r] is the identity of {!combine_round_info} for
      round [r]: all counters zero. *)

  val round_line : Buffer.t -> round_info -> unit
  (** Append the JSONL [round] record: [type], [round], then every
      counter of the table in index order, and a newline.  {!jsonl} and
      {!Trace.to_jsonl} share it. *)

  val activity : n:int -> t * int array * int array
  (** [activity ~n] is [(sink, sent, received)]: per-node counts of
      messages sent and received, updated in place. *)

  val jsonl : ?messages:bool -> out_channel -> t
  (** A sink emitting one JSON object per line: a ["round"] record
      ({!round_line}, every counter present) per delivery round and, when
      [messages] is true, a ["msg"] record per message.  The channel is
      flushed at end-of-run ([on_finish]) but never closed.  For the
      structured, versioned trace format see {!Trace.export_jsonl}. *)
end

type t
(** An engine instance: the port map for one graph plus reusable mailbox,
    frontier and inbox-arena buffers.  Building one costs [O(n + m)];
    [exec_emit] reuses it across runs with no further setup.  Not
    re-entrant: an [estep] function must not call [exec_emit] on the engine
    currently executing it. *)

val create : Graph.t -> t
(** Build the port map.  Verifies the simple-graph invariants the
    binary-search send path relies on — raises {!Duplicate_edge} on a
    duplicated [(src, dst)] port and [Invalid_argument] on a self-loop or
    unsorted adjacency.  Sound for [n = 0] and [n = 1] (no ports). *)

val graph : t -> Graph.t

val port_count : t -> int
(** Number of directed-edge slots, i.e. [2 * m]. *)

val degree : t -> int -> int

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Neighbors of a node in increasing id, from the CSR port map. *)

val find_port : t -> src:int -> dst:int -> int
(** The slot of directed edge [(src, dst)], or [-1] when [dst] is not a
    neighbor of [src] (including ids outside [0, n)).  O(log deg src) by
    binary search of the source's sorted CSR segment. *)

(** Topology churn: a deterministic schedule of {e permanent} node
    fail-stops and directed-edge down/up events, compiled once against an
    engine's port map into a mutable liveness view over the CSR arrays.
    The port map is never rebuilt: a dead port silently drops the frames
    routed through it (counted in {!Sink.dropped}) and a crashed
    node's slots read as empty to the arena inbox fill, so churn composes
    with the scheduler and with {!Runtime.run_reference} unchanged.

    Semantics, per event at round [r] (applied before round [r] executes):
    {ul
    {- [Crash]: the node never steps again; frames already in flight to it
       (sent at [r-1]) and all later frames addressed to it are dropped.
       Frames {e it} sent at [r-1] are still delivered — the crash kills
       the processor, not the wires.  A crashed node is distinct from a
       halted one: mail addressed to it is lost, not a
       [Congestion_violation].  Its state array entry is frozen as of its
       last step.}
    {- [Edge_down]: the directed slot drops the frame it was carrying and
       every frame subsequently sent on it ([Edge_up] restores it).  Width
       checks still apply to dropped sends; the duplicate-slot check
       cannot (nothing occupies a dead slot).}
    {- [Edge_add]: {e capacity-reserved insertion}.  The edge must exist in
       the engine's (union) graph; its slot is pre-downed when the schedule
       resets, so the CSR arrays already carry the capacity and the event
       merely flips the slot up at [r] — the zero-allocation engine shape
       survives dynamic topology.}
    {- [Arrive]: the node is {e dormant} from reset until [r]: it is never
       stepped, its wake hints do not exist, and frames addressed to it are
       dropped (and counted) like frames to a crashed node.  At [r] it goes
       live and steps that same round, like every live node steps the init
       round.  A node whose init state is already halted stays halted.}
    {- [Depart]: a graceful leave — mechanically identical to [Crash]
       (permanent, frames in flight lost) but counted separately
       ({!Sink.departed}), so benches can price planned churn
       apart from failures.}}

    Events scheduled after quiescence never apply.  The compiled value is
    mutable but [exec_emit] resets it on entry, so one value can be reused
    across runs (engine and reference) deterministically. *)
type engine := t

module Churn : sig
  type event =
    | Crash of { node : int; at : int }
    | Edge_down of { src : int; dst : int; at : int }
    | Edge_up of { src : int; dst : int; at : int }
    | Edge_add of { src : int; dst : int; at : int }
    | Arrive of { node : int; at : int }
    | Depart of { node : int; at : int }

  val round_of : event -> int

  type delta = {
    d_crashed : int;
    d_arrived : int;
    d_departed : int;
    d_inserted : int;
  }
  (** Per-kind counts of the events {!advance} just applied. *)

  val no_delta : delta

  type t

  val compile : engine -> event list -> t
  (** Resolve the schedule against the port map: raises [Invalid_argument]
      on a node event naming a non-node, an edge event on a non-edge
      (an [Edge_add] edge must already be reserved in the union graph the
      engine was built over), or a negative round.  Events are applied in
      (round, list-position) order. *)

  val reset : t -> unit
  (** Rewind the mutable view to the pre-run state (also done by [exec_emit]). *)

  val crashed : t -> int -> bool
  (** Current view: whether the node has fail-stopped (or departed). *)

  val dormant : t -> int -> bool
  (** Current view: whether the node is reserved capacity that has not
      arrived yet ([Arrive] pending). *)

  val edge_down : t -> src:int -> dst:int -> bool
  (** Current view: whether the directed edge is down, looked up through
      the compiling engine's port map ({!find_port}); [false] for a
      non-edge. *)

  val apply :
    t ->
    round:int ->
    kill:(int -> unit) ->
    arrive:(int -> unit) ->
    cut:(int -> unit) ->
    delta
  (** Apply every event due at or before [round] to the liveness views and
      return the per-kind counts of the events that took effect.  Each
      such event also calls its hook: [kill v] when node [v] crashes or
      departs, [arrive v] when dormant node [v] arrives, [cut slot] when
      the directed edge of [slot] goes down.  An [Edge_up] or [Edge_add]
      calls none.  The engine drops the frames in flight through its
      hooks; this is the one place the event semantics live. *)

  val advance : t -> round:int -> delta
  (** {!apply} with every hook ignored: the liveness views only, for an
      executor that drops frames itself ({!Runtime.run_reference}). *)

  val final_alive : t -> bool array
  (** Liveness after the {e whole} schedule, regardless of where the run
      stopped — what {!Oracle.eventual_k_domination} judges against.  In a
      full replay every pending arrival fires, so a node is finally dead
      iff it ever crashes or departs. *)

  val final_edges_down : t -> (int * int) list
  (** Directed edges down after the whole schedule, ascending.  An edge is
      finally down iff its last down/up/add event is a down. *)
end

(** Wire corruption: a deterministic model of a {e lying} network.  Frames
    in flight are garbled (bursts of bit flips on the packed wire words of
    the frame arena) or truncated; every decision is a pure hash of
    [(cseed, delivery round, slot, lane)], so the engine at every domain
    count and the reference simulator corrupt — and drop — exactly the
    same frames regardless of iteration order.

    Passing [?corrupt] to [exec_emit] forces the {!Codec} guard word onto
    every frame (as if [~guard:true]): the delivery pass re-verifies each
    garbled frame's CRC and kills what the guard catches, so {e algorithm
    code never decodes a lying byte} — a corrupted frame is either dropped
    and counted ({!Sink.corrupted}) or, with probability under
    [2^-16] per corrupted frame, delivered with an undetected even-weight
    multi-word error (a structural re-check still keeps that case from
    crashing the decoder).  Truncations are always detected.  Detection
    without correction suffices because the layers above retransmit
    ({!Async.run_reliable}) or re-converge ({!Repair}): see DESIGN.md
    §15. *)
module Corrupt : sig
  type counters = {
    mutable injected : int;
        (** frames garbled or truncated in flight this run *)
    mutable detected : int;
        (** garbled frames the guard word (or structural check) caught *)
    mutable truncated : int;  (** truncations — always detected *)
  }

  type spec = {
    flip : float;  (** per-wire-word garble probability *)
    burst : int;  (** consecutive wire words garbled per hit, [>= 1] *)
    truncate : float;  (** per-frame truncation probability *)
    ramp : (int * float) list;
        (** [(round, intensity)] steps, strictly ascending rounds: both
            probabilities are multiplied by the last step at or before the
            current round (1.0 before the first).  Chaos storms use this
            for intensity ramps and quiescent windows. *)
    cseed : int;  (** the hash seed — same seed, same corruption *)
    tally : counters;
        (** run counters, reset by the executor on entry; read them after
            the run.  [injected = detected + truncated] iff no corrupted
            frame slipped through. *)
  }

  val make :
    ?flip:float ->
    ?burst:int ->
    ?truncate:float ->
    ?ramp:(int * float) list ->
    seed:int ->
    unit ->
    spec

  val validate : spec -> unit
  (** [Invalid_argument] on probabilities outside [0, 1], [burst < 1], or
      a malformed ramp. *)

  val arm : spec -> unit
  (** {!validate} the spec, then zero its [tally]: what every executor
      (the engine, {!Runtime.run_reference}, {!Faults.compile}) does on
      entry. *)

  val intensity : spec -> round:int -> float
  (** The ramp multiplier in force at [round]. *)

  val decide : cseed:int -> round:int -> slot:int -> lane:int -> int
  (** The decision hash.  Exposed so {!Runtime.run_reference} and the
      fault layers reach verdicts identical to the engine's. *)

  val threshold : float -> int
  (** 32-bit integer threshold for a probability; compare with {!hit}. *)

  val hit : int -> int -> bool
  (** [hit h thr]: does hash [h] fall under threshold [thr]?  Compares
      the hash's low 32 bits, so verdicts are float-rounding-free. *)

  val mask : int -> int
  (** The 16-bit, never-zero garble mask derived from a decision hash. *)
end

val with_domains : int -> (unit -> 'a) -> 'a
(** [with_domains d f] runs [f ()] with [d] as the shard count of every
    {!exec_emit} (hence {!Runtime.run}) called without [?domains], and
    restores the previous count when [f] returns or raises.  Outside
    every [with_domains] the count is [1]: one shard, stepped on the
    calling domain.  It threads parallelism through composite algorithms
    whose inner runs cannot be reached syntactically.  Because execution
    is bit-identical at every domain count, it never changes any result.
    [Invalid_argument] if [d < 1]. *)

val exec_emit :
  ?max_rounds:int ->
  ?max_words:int ->
  ?sink:Sink.t ->
  ?churn:Churn.t ->
  ?guard:bool ->
  ?corrupt:Corrupt.spec ->
  ?domains:int ->
  ?partition:int array ->
  t ->
  'st ealgorithm ->
  'st array * stats
(** Execute a node program to quiescence on a prebuilt engine.  Every
    frame is checked as it is emitted: a send to a non-neighbor, a second
    frame over one edge in one round, or a put beyond the word budget
    raises [Congestion_violation].  [max_rounds] defaults to
    [default_max_rounds n]; [max_words] defaults to
    [default_max_words n].  [churn] (default none) applies a {!Churn}
    schedule compiled against {e this} engine ([Invalid_argument]
    otherwise).  The dense schedule is the same program with every hint
    {!Always}: [exec_emit e { a with ewake = always }].

    [guard] (default [false]) appends the {!Codec} CRC guard word to every
    frame: the arena stride grows by one wire word per frame, and
    delivered-bit accounting charges for the guard like any other wire
    word, so the integrity cost is visible in the declared budgets.
    [corrupt] (default none) applies a deterministic {!Corrupt} schedule
    to frames in flight; it implies [guard].

    [domains] (default: the count set by {!with_domains}, else 1) is the
    number of shards: the round loop partitions the nodes into [d]
    shards stepped on [d] OCaml domains (the calling domain included),
    with cross-shard frames
    exchanged deterministically at the round barrier; [d = 1] is its
    one-shard case, with no other domain involved.  {b Execution is
    bit-identical at every domain count}: same outputs, same stats, same
    sink events in the same order, same violations with the same
    messages — the differential property [test_engine_diff] checks
    [d] ∈ {2, 4} against [d = 1] and against {!Runtime.run_reference}.
    [partition] assigns each node a shard in [0, domains); default is
    contiguous ranges.  Use [Generators.shard_partition] for a
    degree-balanced assignment.

    The engine keeps its frame arenas, receive counts and the contiguous
    shard layout across runs, so a repeated [exec_emit] on one engine
    allocates O(n) (the state array), not O(m); a run that aborts with an
    exception leaves the engine usable — the next run scrubs what it left
    in flight.

    With [domains > 1] the algorithm's [estep]/[ehalted]/[ewake] functions
    are called concurrently from several domains ([init] stays serial;
    each node
    still steps on exactly one domain per round, and only its owner
    mutates its state entry), so they must not mutate state shared across
    nodes — per-node state, the norm in this library, qualifies. *)

val recorder :
  max_words:int ->
  Graph.t ->
  'st ealgorithm ->
  round:int ->
  node:int ->
  'st ->
  Inbox.t ->
  'st * (int * payload) list
(** [recorder g ea] builds, once per run, the emitter of the executors
    that keep their own mailboxes ({!Runtime.run_reference},
    {!Async.run_reliable}) and returns a stepping function: it runs
    [ea.estep] and returns the new state with the frames the step emitted,
    as [(dst, payload)] pairs in emission order.  Frames cross the
    {!Codec} on the way, and the [max_words] budget is enforced at the
    same put as on the engine, with the same [Congestion_violation] text.
    Not for algorithms: the engine's own emitter is the fast path. *)
