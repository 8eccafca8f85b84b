(** Live dynamic-graph self-healing: incremental [(k+1, O(k))] maintenance
    under interleaved edge/node churn.

    The static pipeline computes a dominating partition once; {!Repair}
    keeps it alive under {e destructive} churn.  This module closes the
    loop for {e constructive} churn too — edge insertions and node
    arrivals — and turns a whole {!Faults.script} (bursts of mixed
    add-edge / cut-edge / arrive / depart / crash events separated by
    quiescent windows) into one maintained execution:

    - The engine runs over the {e union} graph: every node and edge that
      will ever exist is in the CSR from the start, and {!Engine.Churn}'s
      liveness views hide reserved capacity ([Edge_add] slots pre-downed,
      [Arrive] nodes dormant) until its event fires — the zero-allocation
      engine shape survives arbitrary growth.
    - Each script window (one burst plus its quiescent tail) is one
      horizon-bounded {!Repair.run}.  Arriving nodes carry the joiner
      sentinel and ATTACH on their first step; insertions that shorten a
      cluster path are exploited by the heartbeat re-parenting rule.
    - At each checkpoint the decoded protocol state is {e normalized} back
      into a valid plan (depths and dominators recomputed from parent
      pointers; dead, cycle-caught or inconsistent nodes demoted to the
      joiner sentinel), so the next window resumes exactly where repair
      left off.
    - A {e radius watchdog} then checks every cluster tree against the
      O(k) bound and fires the [rebuild] callback {e per violating
      cluster} — a local re-domination (e.g. [Diam_dom.redominate] +
      [Cluster.write_tree] in the core layer, injected here to keep this
      library free of a core dependency) — never a global recompute.
    - {!Oracle.eventual_k_domination} is consulted at every checkpoint
      against the cumulative liveness masks, and the [recompute] callback
      prices the counterfactual full-FastDOM rerun so the report can
      compare incremental repair against recomputation as churn sweeps.

    Everything is deterministic: the engine is bit-identical at every
    domain count (a caller sets it with {!Engine.with_domains}), the
    script is a pure function of its seed, and both callbacks are
    centralized. *)

open Kdom_graph

type config = {
  plan : Repair.plan;
      (** initial plan over the union graph; entries of nodes reserved
          for arrival are forced to the joiner sentinel *)
  beta : int;   (** heartbeat period (see {!Repair.config}) *)
  lease : int;  (** missed-wave tolerance *)
  dmax : int;   (** WELCOME depth cap floor; each window uses
                    [max dmax (Repair.default_dmax plan)] *)
  settle : int;
      (** per-window horizon in rounds: the burst fires at relative round
          1 and repair has [settle] rounds to restore the invariant;
          must cover detection ([lease * beta + depth]) plus the attach /
          takeover tail; >= 2 *)
  bound : int;
      (** the O(k) radius bound: watchdog threshold on cluster-tree depth
          and the oracle's domination bound; >= 1 *)
}

type window_report = {
  w_checkpoint : int;  (** absolute script round of this checkpoint *)
  w_events : int;      (** churn events in this window's burst *)
  w_crashed : int;
  w_departed : int;
  w_arrived : int;
  w_inserted : int;    (** reserved undirected edges brought online *)
  w_cut : int;         (** undirected edges severed *)
  w_suspicions : int;
  w_reparents : int;   (** opportunistic parent switches *)
  w_repair_latency : int;
      (** relative round of the last repair in the window; 0 = quiescent *)
  w_watchdog_fired : int;  (** clusters rebuilt locally *)
  w_rebuild_rounds : int;  (** rounds charged by the [rebuild] callback *)
  w_incremental_rounds : int;  (** repair latency + rebuild charges *)
  w_recompute_rounds : int;    (** the counterfactual full recompute *)
  w_oracle_failures : int;
  w_hb_frames : int;
  w_repair_frames : int;
}

type report = {
  windows : window_report list;  (** one per script checkpoint, in order *)
  total_incremental : int;
  total_recompute : int;
  final_plan : Repair.plan;  (** normalized; sentinel at dead nodes *)
  final_alive : bool array;
  final_down : (int * int) list;
      (** undirected edges unusable at the end: cut, or reserved and
          never inserted *)
  final_centers : int list;
}

val centers_of : Repair.plan -> alive:bool array -> int list
(** Distinct dominator ids claimed by live nodes, ascending. *)

val normalize : Repair.plan -> alive:bool array -> unit
(** Re-anchor a decoded state vector as a valid plan, in place: depths
    and dominators recomputed from parent pointers; dead nodes, broken
    parents and transient cycles demoted to the joiner sentinel.  The
    result always passes {!Repair.validate_plan}.  Exposed for tests. *)

val run :
  rebuild:(plan:Repair.plan -> members:int list -> down:(int * int) list -> int) ->
  recompute:(alive:bool array -> down:(int * int) list -> int) ->
  Graph.t ->
  config ->
  Faults.script ->
  report
(** Maintain [cfg.plan] across the whole script on union graph [g].
    [rebuild ~plan ~members ~down] must re-dominate the given cluster
    {e in place} (patch the members' plan entries, using only union edges
    not in [down] — the currently unusable undirected edges) and return
    the charged rounds; it is called only when the watchdog fires.  [recompute
    ~alive ~down] prices a from-scratch recompute of the surviving graph
    and is called once per checkpoint (pure pricing — its result is
    only accumulated).  Raises [Invalid_argument] on [settle < 2] or
    [bound < 1]. *)
