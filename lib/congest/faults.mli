(** Deterministic, seedable fault injection for the asynchronous executor.

    The paper (and every related CONGEST reproduction) assumes perfectly
    reliable links.  This module is the adversary: a fault model compiled
    against an {!Engine} port map that decides, per physical frame, whether
    the frame is lost, duplicated, or slowed down, and whether its endpoint
    is currently crashed.  All decisions flow from a single [seed] through a
    dedicated {!Kdom_graph.Rng} stream, so every faulty execution is
    exactly reproducible.

    The model:

    - {e per-link loss / duplication / slowdown}: every directed edge has a
      {!link} parameter record — a default plus per-link overrides, looked
      up through the engine's O(1) port map, so an adversarial schedule can
      target specific links (e.g. make one tree edge lose 90% of its
      frames);
    - {e reordering}: when [reorder] is true each frame's delay is drawn
      independently, so frames overtake each other; when false the layer
      forces per-link FIFO delivery by clamping each delivery time to the
      latest already scheduled on that link;
    - {e fail-stop crashes with optional recovery}: a crashed node drops
      every frame addressed to it and fires no timers; on recovery it
      resumes with its state intact (crash-recovery with durable state), so
      a retransmitting sender eventually gets through.  A crash with
      [recover = None] is permanent.

    The consumer is {!Async.run_reliable}, which layers a sequence-numbered
    ack/retransmit protocol on top so that any algorithm still reaches
    quiescence with final states bit-identical to {!Runtime.run}'s.

    Scheduling note: under fault injection, frame deliveries and the
    retransmit timers they arm are events in {!Async}'s discrete-event
    queue — the wake sources of the asynchronous executor.  The engine's
    round-level {!Engine.ealgorithm.ewake} hints play no role here (the
    synchronizer steps every node every pulse; see {!Async}). *)

type link = {
  drop : float;       (** probability a frame on this link is lost *)
  duplicate : float;  (** probability a surviving frame is delivered twice *)
  slow : float;       (** probability a delivery suffers the slowdown *)
  slow_factor : float;  (** delay multiplier applied to slowed deliveries *)
}

val reliable_link : link
(** All-zero probabilities: the benign link. *)

type crash = {
  node : int;
  at : float;  (** crash time *)
  recover : float option;  (** recovery time, or [None] for fail-stop forever *)
}

type churn_event = Engine.Churn.event =
  | Crash of { node : int; at : int }
  | Edge_down of { src : int; dst : int; at : int }
  | Edge_up of { src : int; dst : int; at : int }
  | Edge_add of { src : int; dst : int; at : int }
  | Arrive of { node : int; at : int }
  | Depart of { node : int; at : int }
(** Permanent topology churn on the synchronous round clock — re-exported
    from {!Engine.Churn} so fault specs can carry both the float-time
    transient model (for {!Async}) and the round-time permanent one (for
    {!Engine.exec_emit} / {!Runtime.run_reference}).  [Edge_add]/[Arrive]
    bring reserved capacity online; [Depart] is a graceful leave (see
    {!Engine.Churn} for the exact semantics). *)

type spec = {
  link : link;  (** default parameters for every directed link *)
  overrides : ((int * int) * link) list;
      (** per-directed-link overrides [((src, dst), link)] — the
          adversarial schedule *)
  reorder : bool;  (** allow frames to overtake each other on a link *)
  crashes : crash list;
  churn : churn_event list;
      (** permanent fail-stops and edge down/up events for the synchronous
          engine; compiled via {!churn}, ignored by {!Async} *)
  seed : int;
  corrupt : Engine.Corrupt.spec option;
      (** wire corruption — bit flips, burst garbling, truncation — on the
          packed frame bytes.  Consumed two ways: {!Async.run_reliable}
          draws per-copy {!garble} verdicts from a dedicated stream seeded
          by the spec's [cseed], and the synchronous executors take the
          same spec directly via [Engine.exec_emit ?corrupt] /
          [Runtime.run_reference ?corrupt].  [None] leaves every existing
          decision stream untouched. *)
}

exception Overlapping_crashes of int
(** Raised by {!compile} when two crash windows of the same node overlap.
    Windows are half-open ([at <= t < recover]), so back-to-back windows
    ([recover1 = at2]) are legal; a window after a permanent crash
    ([recover = None]) is not. *)

val none : spec
(** The fault-free network: reliable links, FIFO, no crashes. *)

val lossy :
  ?drop:float ->
  ?duplicate:float ->
  ?slow:float ->
  ?slow_factor:float ->
  ?reorder:bool ->
  ?crashes:crash list ->
  ?churn:churn_event list ->
  ?corrupt:Engine.Corrupt.spec ->
  seed:int ->
  unit ->
  spec
(** Uniform fault regime: every link gets the same parameters
    (defaults: [drop = 0.], [duplicate = 0.], [slow = 0.],
    [slow_factor = 10.], [reorder = true], no crashes, no churn, no
    corruption). *)

type counters = {
  mutable transmitted : int;  (** frames offered to the network *)
  mutable dropped : int;      (** frames lost by the link layer *)
  mutable duplicated : int;   (** extra copies injected *)
  mutable crash_dropped : int;  (** frames that arrived at a crashed node *)
  mutable corrupted : int;
      (** garbled copies rejected by the receiver's integrity guard
          ({!note_corrupt}) — distinguished from [dropped] so retransmit
          sweeps stay interpretable *)
}

type t
(** A fault model compiled against one engine's port map. *)

val compile : Engine.t -> spec -> t
(** Resolves the per-link parameter table through the port map (raises
    [Invalid_argument] on an override for a non-edge or a crash of a
    non-node, {!Overlapping_crashes} on overlapping crash windows of one
    node; also [Invalid_argument] on a probability outside [[0, 1]] or a
    [slow_factor] that is below 1, NaN or infinite) and seeds the decision
    stream.  The [churn] field is not
    consumed here — compile it separately with {!churn}. *)

val spec : t -> spec
val counters : t -> counters

val sample_delay : Kdom_graph.Rng.t -> max_delay:float -> float
(** One link-delay draw, uniform on the half-open interval
    [(0, max_delay]] — strictly positive, can attain [max_delay].
    Raises [Invalid_argument] unless [max_delay] is positive and finite. *)

val transmit :
  t -> now:float -> slot:int -> rng:Kdom_graph.Rng.t -> max_delay:float -> int
(** [transmit t ~now ~slot ~rng ~max_delay] decides the fate of one frame
    sent on directed-edge slot [slot] at time [now].  Returns the number
    of copies scheduled — 0 (dropped), 1, or 2 (duplicated) — and updates
    {!counters}.  Copy [i]'s delivery time is [arrival t i] until the next
    call: [now] plus a {!sample_delay} draw from [rng], scaled by
    [slow_factor] when slowed, clamped to per-link FIFO order unless
    [reorder].  The drop, duplicate and slowdown decisions draw from the
    fault model's own stream, in that order. *)

val arrival : t -> int -> float
(** [arrival t i] is the delivery time of copy [i] (0 or 1) scheduled by
    the last {!transmit}. *)

val down : t -> node:int -> time:float -> bool
(** Whether [node] is crashed at [time] (crash windows are half-open:
    [at <= time < recover]). *)

val next_up : t -> node:int -> time:float -> float option
(** Earliest [t >= time] at which the node is up, or [None] if it never
    recovers. *)

val note_crash_drop : t -> unit
(** Record a frame discarded because its destination was down (called by
    the executor, which is the one that knows delivery times). *)

val garble : t -> pulse:int -> wire:int -> bool
(** Per-copy corruption verdict for a physical frame of [wire] wire words
    sent at synchronizer pulse [pulse]: one bit-flip trial per wire word
    plus a truncation trial (frames of one wire word cannot be shortened),
    scaled by the corrupt spec's intensity ramp.  Draws from a dedicated
    stream seeded by the spec's [cseed], so enabling corruption does not
    perturb the loss/duplication/delay decisions.  Always [false] when the
    spec carries no [corrupt].  A [true] verdict counts into the corrupt
    spec's [tally.injected]. *)

val note_corrupt : t -> unit
(** Record a garbled copy rejected by the receiver's guard check: bumps
    {!counters}[.corrupted] and the corrupt spec's [tally.detected].
    Called by the executor at arrival time (a copy arriving at a crashed
    node is a crash drop instead, like any other frame). *)

(** {1 Topology churn (synchronous engine)} *)

val churn : Engine.t -> spec -> Engine.Churn.t
(** Compile the spec's [churn] schedule against the engine's port map
    ([Engine.Churn.compile]); pass the result to [Engine.exec_emit ?churn] or
    [Runtime.run_reference ?churn].  Raises [Invalid_argument] on events
    naming non-nodes or non-edges. *)

type script = {
  script_events : churn_event list;
      (** the full timeline, both directed events of an undirected edge
          op at the same round *)
  script_checkpoints : int list;
      (** quiescent rounds (end of each quiet window) at which the
          eventual-quality oracle is expected to hold *)
  script_last : int;  (** round of the last burst *)
}
(** A deterministic churn timeline: bursts of mixed events separated by
    quiescent windows, the shape consumed by [Dynamic]. *)

val churn_script :
  Kdom_graph.Graph.t ->
  seed:int ->
  ?bursts:int ->
  ?quiescence:int ->
  arrivals:int list ->
  insertions:(int * int) list ->
  cuts:(int * int) list ->
  crashes:int list ->
  departs:int list ->
  unit ->
  script
(** Seeded timeline generator over the {e union} graph (the graph holding
    every reserved node and edge).  The requested changes — [arrivals]
    (nodes dormant until they join), [insertions] (reserved undirected
    edges brought up), [cuts], [crashes], [departs] — are shuffled by
    [seed] and dealt into at most [bursts] bursts (default 4) of
    near-equal size, each followed by a [quiescence]-round quiet window
    (default 8) ending in a checkpoint.  Empty op set yields a single
    heartbeat-only window with one checkpoint.  Deterministic in [seed].
    Raises [Invalid_argument] on out-of-range nodes, non-edges of the
    union graph, [bursts < 1], or [quiescence < 1].  The generator does
    not order dependent events: keep the node sets disjoint unless you
    mean the interleaving to be adversarial. *)

val random_churn :
  Kdom_graph.Graph.t ->
  seed:int -> crashes:int -> edge_cuts:int -> last:int ->
  churn_event list
(** A seeded random churn schedule: [crashes] distinct node fail-stops and
    [edge_cuts] distinct undirected edge cuts (each cut emits both directed
    [Edge_down] events at the same round), all at uniform rounds in
    [\[0, last\]].  Deterministic in [seed].  Raises [Invalid_argument] if
    more crashes (cuts) are requested than there are nodes (edges). *)
