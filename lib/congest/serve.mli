(** Live request serving over the cluster forest: the event-driven
    traffic layer on top of a [(k+1, O(k))] dominating partition.

    The paper's §6 applications (directories, sparse routing) are offline
    cost calculators; this module makes the same structure {e serve}: a
    synthetic timeline of requests is injected at their origin nodes and
    carried message-by-message through the cluster trees of a
    {!Repair.plan} on the CONGEST {!Engine}.

    - {e Lookup}: "where is my nearest directory copy?"  The request
      climbs tree parents to the cluster dominator, leaving a breadcrumb
      (request id -> previous hop) at every relay; the dominator answers
      with its id and the reply descends the breadcrumbs.  Round trip:
      [2 * depth(origin)] hops.
    - {e Publish}: a directory write.  Same climb; the dominator commits
      the write and acknowledges down the breadcrumb path, so the origin
      learns completion.
    - {e Route}: deliver a payload to a node of the same cluster.  The
      frame climbs until the first ancestor of the destination (the tree
      LCA), then descends to it — each relay finds its next hop by
      climbing the plan's parents from the destination — and the
      destination acknowledges back along the breadcrumbs.  A
      destination outside the tree is NACKed by the root — the request
      terminates {e rejected} rather than lost.

    Transport discipline: every frame is [| tag; request; aux; hops |] —
    {!max_words} = 4 words, the engine's default CONGEST budget — and a
    node sends {e at most one frame per edge per round}: frames queue
    per-neighbor and drain one per round, so congestion at a hot
    dominator shows up as queueing latency, never as a widened message.
    Idle nodes ride wake hints ([OnMessage] plus [At] timers for
    injections and retry deadlines) and cost nothing.

    Reliability: origins keep an unanswered request pending and re-send
    the initial frame after [retry_after] rounds, up to [retries] times —
    enough to survive transient frame loss from churn.  Requests whose
    serving path died stay [Lost] in the report; {!with_repair} composes
    a crashed execution with a {!Repair} healing phase and a retry phase
    so surviving requests are eventually answered (checked by
    {!check_handover}).

    Every run records per-request latency (answer round minus injection
    round) and round-trip hop counts; {!run} publishes p50/p99 summaries
    as trace notes and full distributions as v1.5 [hist] records
    ([serve.latency], [serve.hops], [serve.edge_load]). *)

open Kdom_graph

type kind =
  | Lookup        (** find the cluster dominator (directory copy) *)
  | Publish       (** write at the dominator, acknowledged *)
  | Route of int  (** deliver to the given destination node *)

type request = {
  origin : int;  (** node the request is injected at *)
  kind : kind;
  at : int;      (** injection round, in [\[0, horizon)] *)
}

type config = {
  plan : Repair.plan;      (** the cluster forest to serve through *)
  requests : request array;  (** request id = index in this array *)
  horizon : int;           (** every node halts at this round *)
  retry_after : int;       (** rounds an origin waits before re-sending;
                               make it comfortably above the cluster
                               round-trip [2 * depth + queueing] *)
  retries : int;           (** re-sends per request after the first *)
}

val max_words : int
(** Declared word budget: every frame is [| tag; request; aux; hops |] —
    4 words. *)

val validate : Graph.t -> config -> unit
(** Raises [Invalid_argument] unless the plan passes
    {!Repair.validate_plan} and every request names a valid origin (and
    destination), with [0 <= at < horizon], [retry_after >= 1],
    [retries >= 0]. *)

type state
(** Per-node protocol state (abstract; decode with {!decode}).  The states
    of one run share the per-run tables of the {!algorithm} value that
    produced them. *)

val algorithm : Graph.t -> config -> state Engine.ealgorithm
(** The node program: queued 4-word frames are drained straight into the
    packed send arena.  This is the kernel {!run} executes; it is exposed
    for custom executions.  Validate with {!validate} (or use {!run})
    first.  One value may run any number of times, on any executor and
    domain count: each node's [einit] resets the table cells it owns.
    Decode a run before starting the next one on the same value. *)

type outcome =
  | Answered of { round : int; hops : int; answer : int }
      (** terminal success: [answer] is the dominator id (lookup /
          publish) or the destination (route); [hops] is the round-trip
          hop count, 0 for a locally answered request *)
  | Rejected of { round : int; hops : int }
      (** terminal refusal: sentinel origin (no cluster), or a route
          whose destination is outside the origin's cluster tree *)
  | Lost  (** no answer by the horizon — the serving path died or the
              horizon was too short *)

type report = {
  outcomes : outcome array;  (** per request id *)
  answered : int;
  rejected : int;
  lost : int;
  local : int;          (** answered without any frame (origin was the
                            dominator / its own destination) *)
  retries_used : int;   (** re-sends performed by origins *)
  stray : int;          (** replies dropped at a relay with no breadcrumb
                            (duplicate answers after a retry) *)
  frames : int;         (** total frames sent *)
  latencies : int array;  (** sorted latencies of answered requests *)
  hop_counts : int array; (** sorted round-trip hop counts of answered *)
  edge_load : (int * int) list;
      (** congestion histogram: [(frames carried, directed edges that
          carried that many)], ascending, edges with zero frames
          omitted *)
  queue_peak : int;     (** largest per-node outgoing queue observed *)
  queue_peak_node : int;
      (** smallest node id whose outgoing queue reached [queue_peak]; -1
          when nothing queued *)
}

val decode : config -> state array -> report

val percentile : int array -> int -> int
(** [percentile sorted p] — nearest-rank percentile, [p] in [\[0, 100\]];
    0 on an empty array. *)

val hist : int array -> (int * int) list
(** [(value, count)] histogram of an array of non-negative ints,
    ascending by value. *)

val tree_distance : Repair.plan -> int -> int -> int option
(** Hop distance between two nodes of the same cluster tree (via their
    LCA), [None] when they are in different trees or carry the joiner
    sentinel.  The offline mirror of the route climb/descend path. *)

val run :
  ?trace:Trace.t ->
  ?churn:Engine.Churn.t ->
  ?corrupt:Engine.Corrupt.spec ->
  Engine.t ->
  config ->
  state array * Engine.stats
(** Execute the serving protocol until [horizon] (at most [horizon + 2]
    rounds).  With [?trace] the run
    is recorded as a [serve] span with [serve.*] notes (answered /
    rejected / lost / retries / p50 / p99) and the v1.5 latency, hop and
    edge-load histograms. *)

val check : Graph.t -> config -> report -> Oracle.failure list
(** Churn-free oracle: every request reached a terminal outcome; lookups
    and publishes from clustered origins were answered by their plan
    dominator in exactly [2 * depth(origin)] hops; routes inside one
    tree were answered in [2 * tree_distance] hops and routes across
    trees were rejected. *)

(** {2 Crash-mid-traffic composition} *)

type handover = {
  phase1 : report;          (** the serving run under churn *)
  repair : Repair.report;   (** the healing phase ({!Repair.run}) *)
  healed_plan : Repair.plan;
      (** the repaired forest, normalized ({!Dynamic.normalize}) —
          sentinel at dead nodes *)
  retried : int array;
      (** original request ids re-injected in the retry phase *)
  phase2 : report option;   (** the retry run, [None] when nothing
                                survived unanswered *)
  alive : bool array;       (** liveness after the whole churn schedule *)
  dead_edges : (int * int) list;
}

val with_repair :
  ?trace:Trace.t ->
  ?corrupt:Engine.Corrupt.spec ->
  beta:int ->
  lease:int ->
  settle:int ->
  Engine.t ->
  config ->
  churn:Engine.Churn.event list ->
  handover
(** Serve under [churn], heal the forest with a [settle]-round
    {!Repair.run} (heartbeat period [beta], lease [lease]) over the
    post-churn topology, then re-inject every unanswered request from a
    surviving origin against the healed plan.  The composition is the
    dominator-handover story: requests that died with their dominator
    are answered by its takeover successor after reattach. *)

val check_handover : Graph.t -> config -> handover -> Oracle.failure list
(** The eventual-service oracle: every request whose origin (and, for a
    route, destination) survived the churn and whose surviving component
    holds a live dominator reaches a terminal outcome across the two
    phases; lookups and publishes must be answered (never rejected), and
    a route must be answered when its endpoints share a cluster in the
    plan that served it.  Requests from crashed origins, to crashed
    destinations, or in components the repair could not re-dominate are
    exempt. *)
