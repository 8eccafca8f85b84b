(** Asynchronous execution of synchronous algorithms via the
    α-synchronizer [Al].

    §1.2 of the paper argues the synchrony assumption is inessential: any
    of its algorithms can run on an asynchronous network under the
    α-synchronizer at a cost of one message over each edge per direction
    per simulated round.  This module {e demonstrates} that claim: it is a
    discrete-event simulator in which every message suffers an independent
    random delay, wrapped by a faithful α-synchronizer —

    + after executing pulse [r], a node awaits an acknowledgment for every
      algorithm message it sent in that pulse; once all arrive it is
      {e safe} for [r] and announces this to all neighbors;
    + a node executes pulse [r+1] once it is safe for [r] and has heard
      [SAFE(r)] from every neighbor.

    Because a neighbor's safety certifies that its pulse-[r] messages were
    delivered, every node's pulse-[r+1] inbox equals the synchronous one,
    so the final states are {e identical} to {!Runtime.run}'s — the tests
    check this bit for bit on the paper's algorithms.  The synchronizer
    runs over a reliable-delivery link layer ({!run_reliable}); with the
    default {!Faults.none} no frame is lost and none is retransmitted.

    Scheduling note: the synchronizer steps every live node at every
    pulse — its correctness argument needs each node to certify safety
    per pulse — so the engine's {!Engine.ealgorithm.ewake} hints are not
    consulted here.  A node halted at [einit] is never stepped, as on the
    engine.  The discrete-event queue (message arrivals, acks, SAFE
    announcements and retransmit timers) is this executor's wake source;
    the sparse scheduling happens at event granularity instead of round
    granularity.

    The queue is flat.  Events are ints in struct-of-arrays columns —
    due time, push number, kind/pulse code and two operands (a slot and
    a sequence number, or a node) — with no boxed record per event.
    Arrivals, garbled copies, wake-ups and timers postponed to a crashed
    sender's recovery live in a binary heap.  Every other retransmit
    timer skips it: a timer armed at attempt [a] is due
    [ack_timeout * 2^(a-1)] after it is armed, at the current time, which
    never decreases, so each attempt level is a FIFO ring that stays
    sorted by itself (asserted on every push).  A pop takes the least
    [(time, push number)] among the heap top and the ring heads, which is
    exactly the order of a single heap: the same seeds give the same
    events in the same order.  A timer whose frame was acked meanwhile
    would do nothing and is dropped when it reaches its ring's head. *)

open Kdom_graph

type report = {
  async_time : float;      (** completion time in delay units *)
  pulses : int;            (** synchronous rounds simulated *)
  alg_messages : int;      (** algorithm messages delivered *)
  sync_messages : int;     (** acknowledgments + safety announcements *)
}

(** {1 Reliable delivery over faulty links} *)

type fault_report = {
  report : report;  (** the synchronizer-level report *)
  frames : int;
      (** physical frames offered to the network: first transmissions,
          retransmissions and link-level acks *)
  retransmits : int;  (** frames re-sent after an ack timeout *)
  timeouts : int;
      (** retransmission-timer expiries with the frame still unacked
          (includes timers postponed because the sender was crashed) *)
  dropped : int;  (** frames lost by the fault layer *)
  duplicated : int;  (** frame copies injected by the fault layer *)
  crash_dropped : int;  (** frames that arrived at a crashed node *)
  corrupted : int;
      (** frame copies garbled in flight and rejected by the receiver's
          integrity guard — no link-level ack is sent, so the sender's
          retransmission timer recovers delivery exactly as for a loss,
          but the rejection is counted separately from [dropped] *)
}

exception Delivery_failed of { src : int; dst : int; attempts : int }
(** A frame was transmitted [max_attempts] times without an acknowledgment
    — the link is effectively severed (e.g. the destination crashed and
    never recovers). *)

val run_reliable :
  rng:Rng.t ->
  ?faults:Faults.spec ->
  ?max_delay:float ->
  ?max_words:int ->
  ?ack_timeout:float ->
  ?max_attempts:int ->
  ?sink:Engine.Sink.t ->
  Graph.t ->
  'st Engine.ealgorithm ->
  'st array * fault_report
(** [run_reliable ~rng g algo] executes [algo] under the α-synchronizer on
    a network governed by [faults] (default {!Faults.none}), with a
    reliable-delivery link layer beneath the synchronizer:

    - every logical message (algorithm payload, pulse acknowledgment or
      safety announcement) is framed with a per-directed-link sequence
      number;
    - the receiver answers each frame with a link-level ack on the reverse
      direction of the same edge — itself subject to the fault model;
    - the sender retransmits after [ack_timeout] (default
      [4 *. max_delay], comfortably above the 2-delay round trip, so a
      fault-free run performs {e zero} retransmissions) with exponential
      backoff, giving up with {!Delivery_failed} after [max_attempts]
      (default 60) transmissions;
    - the receiver suppresses duplicates — injected by the fault layer or
      by retransmission races — so every logical message is dispatched
      exactly once.

    Both ends keep a per-link ring indexed by [seq - base]: the sender's
    holds its unacked frames, its base the oldest of them, and the
    receiver's marks the frames dispatched above its base, the watermark
    below which all were.  A ring grows with the frames outstanding on
    its link, never with the frame count.

    Exactly-once (unordered) delivery is all the α-synchronizer needs:
    its inboxes are keyed by pulse, so reordered deliveries land in the
    right pulse buffer, and a neighbor's [SAFE(r)] still certifies that
    every pulse-[r] message is buffered before pulse [r + 1] executes.
    Final states are therefore bit-identical to {!Runtime.run}'s under
    {e any} drop/duplication/reordering regime, and under crash-recovery
    faults (crashed nodes keep their state; see {!Faults}).  A node that
    is crashed at time 0 simply starts late.  Permanent crashes
    ([recover = None]) generally end in {!Delivery_failed} or a
    quiescence failure ([Invalid_argument]), as the paper's algorithms
    assume all nodes participate.

    The skew bound.  A node that has executed pulses [0 .. q-1] can only
    receive algorithm messages for pulses [q] and [q + 1] and [SAFE(r)]
    for [r] in [{q - 1, q}]: a neighbor sends at pulse [p] only after the
    node's [SAFE(p - 1)], and the node cannot pass pulse [p + 1] before
    that neighbor's [SAFE(p)], which needs the node's ack.  So each node
    keeps two pulse slots, by parity, for its inbox buffers and its SAFE
    counts; a message outside them raises [Invalid_argument].  Inboxes
    are filled in sender order with no sort.

    Raises [Invalid_argument] up front unless [max_delay] and
    [ack_timeout] are positive and finite, naming the parameter, and
    when [max_attempts < 1].

    [sink] receives [on_message] per logical algorithm send (at its
    pulse) and, after quiescence, one {!Engine.Sink.round_info} per pulse
    with the fault counters ([dropped]/[duplicated]/[retransmits]/
    [corrupted]) attributed to the pulse of the logical message each
    frame carried.

    Nodes step through one {!Engine.recorder} built for the run.  Per-pulse
    sends obey the synchronous engine's congestion discipline, via the
    same port map: a send to a non-neighbor or two sends over one edge
    within a pulse raise [Engine.Congestion_violation], and a put beyond
    [max_words] (default [Engine.default_max_words n]) raises it with the
    engine's text. *)
