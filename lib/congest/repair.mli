(** Self-healing cluster maintenance: failure detection and local repair.

    The paper's output — a [(k+1, O(k))] dominating partition with one
    dominator per cluster and a spanning cluster tree — is computed once
    and then assumed to hold forever.  Under permanent churn
    ({!Engine.Churn}) that assumption silently breaks: a crashed dominator
    or a severed tree edge leaves part of a cluster undominated and no node
    notices.  This module layers a detector and a bounded local repair on
    top of any such partition:

    - {e Heartbeats}: every dominator emits a heartbeat wave every [beta]
      rounds; members that hear their parent's wave relay it.  A
      heartbeat carries the dominator id and the sender's tree depth, and
      is broadcast to {e every} neighbor (not just children), so later
      corrections (a takeover, a cluster merge, a depth change) propagate
      at wave speed and every member continuously advertises its distance
      to the dominator.
    - {e Re-parenting}: a member that hears a same-cluster heartbeat from
      a non-parent at depth [d] with [d + 1] strictly below its own depth
      switches its parent to the sender — the one-frame ADOPTED
      handshake.  This is how an inserted edge ({!Engine.Churn.Edge_add})
      that shortens a cluster path is exploited without any rebuild, and
      it keeps tree depths near the true cluster radius under churn.
      Depth strictly decreases at every switch, so switches terminate and
      cannot form cycles.
    - {e Join}: a plan entry [dominator = -1; parent = -1; depth = 0]
      (the {e joiner sentinel}) starts the node as a born orphan — an
      arriving node ({!Engine.Churn.Arrive}) ATTACHes on its first step
      and adopts the closest WELCOME, exactly the reattach path below.
    - {e Leases}: a member that misses heartbeats for [lease * beta + depth]
      rounds declares itself {e orphaned} — its dominator, or the tree path
      to it, is gone.  The [+ depth] slack absorbs the wave's propagation
      delay, so detection needs no coupling between [beta] and the cluster
      radius.
    - {e Reattach}: an orphan broadcasts ATTACH; any neighbor that can
      still vouch for a dominator — it heard a real heartbeat within its
      own lease, and its tree depth is below the configured cap — answers
      WELCOME with its dominator and depth, and the orphan adopts the
      closest answer.  Across a cluster boundary this is the merge rule —
      members of a cluster split by churn drain into neighboring live
      clusters.  The vouching guard is what makes detection terminate:
      adoption renews a lease but not heartbeat freshness, so a region
      whose dominator is gone stops welcoming within one lease and
      collapses into takeover together, instead of lease-renewing itself
      pairwise forever.
    - {e Takeover}: if no neighbor answers after the retry budget, the
      orphan set elects a replacement dominator by flooding a takeover
      wave — the {!Leader} flood restricted to the orphan set, using the
      same {!wave_prefers} rule, which simultaneously rebuilds the cluster
      tree (BFS of the winning wave).  Takeover members hold a lease too,
      so a dead wave re-orphans them: the protocol is self-stabilizing
      under repeated churn.

    All frames fit in {!max_words} = 3 words of [O(log n)] bits, and a
    churn-free execution from a BFS-shaped plan generates heartbeat
    traffic only — zero suspicions, zero repair frames (asserted by the
    quiescence tests; re-parenting fires only when the plan left a
    strictly shorter path unused).

    The run is horizon-bounded: every node halts at round [horizon], so
    one execution observes a fixed window of churn and repair.  Use
    {!Oracle.eventual_k_domination} on {!decode} plus the churn's final
    liveness view to check the restored invariant. *)

open Kdom_graph

val wave_prefers : int -> int -> int -> int -> bool
(** [wave_prefers id1 d1 id2 d2]: wave 1 strictly beats wave 2 — higher
    originator id, then smaller depth.  The flood-wave upgrade rule shared
    with {!Leader}, which passes wave keys in place of ids; plain int
    comparisons, so it allocates nothing. *)

type plan = {
  dominator : int array;  (** dominator of each node's cluster *)
  parent : int array;     (** cluster-tree parent; -1 for a dominator *)
  depth : int array;      (** cluster-tree depth; 0 for a dominator *)
}
(** The maintained structure: a forest of cluster trees, one rooted at
    each dominator (e.g. [Cluster.plan_of_partition]). *)

type config = {
  plan : plan;
  beta : int;    (** heartbeat period in rounds; >= 2 *)
  lease : int;   (** missed-wave tolerance; the lease is [lease * beta +
                     depth] rounds; >= 2 *)
  dmax : int;    (** deepest cluster tree a WELCOME may build (>= the
                     plan's depth).  The cap is the termination argument
                     for detection: in a region whose dominator is gone,
                     every re-adoption strictly deepens the stale tree —
                     without a cap two members can lease-renew each other
                     forever ("doomed adoption" ping-pong), never both
                     orphaned at once, and takeover never fires.  Capping
                     the depth starves that cycle.  A legitimate merge
                     refused by the cap costs only locality: the orphans
                     elect their own dominator instead.
                     {!default_dmax} picks [2 * plan depth + 2], enough
                     for a severed subtree to re-root under a live
                     cluster. *)
  horizon : int; (** every node halts at this round; >= 1 *)
}

val default_dmax : plan -> int

val max_words : int
(** Declared word budget: the widest frames (HB, WELCOME, NEWDOM) are
    [| tag; id; depth |] — 3 words. *)

type state
(** Per-node protocol state (abstract; decode with {!decode}). *)

val validate_plan : Graph.t -> plan -> unit
(** Raises [Invalid_argument] unless the plan is a forest of rooted trees
    over graph edges with consistent depths and per-tree dominators.
    Entries carrying the joiner sentinel ([dominator = -1; parent = -1;
    depth = 0]) are accepted: such nodes start orphaned and join via
    ATTACH/WELCOME. *)

val algorithm : Graph.t -> config -> state Engine.ealgorithm
(** The node program: heartbeats and repair frames are written straight
    into the packed send arena, so the steady-state heartbeat traffic
    allocates nothing.  This is the kernel {!run} executes; it is exposed
    for differential testing ({!Runtime.run_reference}) and custom
    executions.  Validate the config with {!validate_plan} (or use
    {!run}) first. *)

type report = {
  dominator_of : int array;
      (** final dominator claim per node; -1 = still orphaned (or the
          node's pre-crash value — mask with [Engine.Churn.final_alive]) *)
  parent_of : int array;   (** final cluster-tree parent; -1 at roots *)
  depth_of : int array;
  suspicions : int;        (** nodes that ever declared their lease missed *)
  first_suspect : int;     (** earliest suspicion round; -1 = none *)
  last_repair : int;       (** latest round a node (re)gained a dominator;
                               -1 = none *)
  reparents : int;         (** opportunistic parent switches onto strictly
                               shorter cluster paths *)
  hb_frames : int;         (** heartbeat frames sent (steady-state cost) *)
  repair_frames : int;     (** ATTACH/WELCOME/ADOPTED/NEWDOM frames sent *)
}

val decode : state array -> report
(** Aggregate a final state vector, whichever executor produced it.
    Crashed nodes are frozen at their pre-crash state; intersect with the
    churn's final liveness view before drawing conclusions. *)

val live_centers : report -> bool array -> int list
(** [live_centers rep alive]: the live nodes that claim themselves as
    dominator (takeover leaders included), descending — the centers to
    hand {!Oracle.eventual_k_domination}. *)

val run :
  ?trace:Trace.t ->
  ?churn:Engine.Churn.t ->
  ?corrupt:Engine.Corrupt.spec ->
  ?max_rounds:int ->
  Engine.t ->
  config ->
  state array * Engine.stats
(** Execute the maintenance protocol on [e]'s graph until [horizon].
    Takes the engine rather than the graph so a churn schedule compiled
    against it ([Faults.churn]) can be threaded through.  [max_rounds]
    defaults to [horizon + 2].  With [?trace] the run is recorded as a
    [repair] span plus, when anything was suspected, a synthetic
    [repair.heal] span covering first suspicion to last repair, and
    [repair.*] notes (suspicions, frame counts, detection rounds). *)
