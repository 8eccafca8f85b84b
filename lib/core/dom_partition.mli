(** The [DOM_Partition] family (§3.2, Figs. 5–7): partitioning a tree of
    [n >= k+1] nodes into clusters of size [>= k+1] and radius [O(k)].

    Three variants, in increasing sophistication:

    {ul
    {- {!run_1} — [DOM_Partition_1(k)] (Fig. 5): [ceil(log2(k+1))] rounds of
       [BalancedDOM]-and-contract.  Produces a [(k+1, O(k^2))] spanning
       forest in [O(k^2 log* n)] charged rounds (Lemma 3.4).}
    {- {!run_2} — [DOM_Partition_2(k)] (Fig. 6): clusters reaching radius
       [k+1] are retired to the output and lone leftover clusters are
       parked in a side set [S] merged at the end.  Produces a
       [(k+1, 5k+2)] forest in [O(k log k log* n)] charged rounds
       (Lemmas 3.5/3.6).}
    {- {!run} — [DOM_Partition(k)] (Fig. 7): each iteration [i] only admits
       clusters of radius [<= 2 * 2^i] ("participating"); larger ones wait
       in [W] and lone participating clusters merge onto waiting neighbors.
       Produces the same [(k+1, 5k+2)] forest in [O(k log* n)] charged
       rounds (Lemmas 3.7/3.8).}}

    Implementation notes (documented deviations from the figure text):
    {ul
    {- Clusters are retired to the output the moment their {e radius}
       reaches [k+1] (the figure's depth test, which its accompanying note
       says is implemented through [Depth] counters).}
    {- The figures leave implicit what happens to clusters still in play
       when the main loop ends; by the doubling argument they have size
       [>= k+1] (asserted), and we retire them to the output.}
    {- In {!run}, Fig. 6's step (3c) is subsumed by Fig. 7's step (3-IV):
       lone participating clusters are resolved at the start of the next
       iteration or in a final pass, rather than being sent to [S]
       mid-loop while mergeable waiting neighbors still exist.}}

    Round accounting is phase-level (see DESIGN.md): one contracted-level
    round costs [2r+1] host rounds where [r] bounds the radius of the
    clusters being simulated, and every charge is recorded in the result's
    ledger. *)

open Kdom_graph

type result = {
  clusters : Forest.cluster list;  (** the output partition P_out *)
  ledger : Ledger.t;               (** round charges per iteration *)
  rounds : int;                    (** [Ledger.total] *)
  iterations : int;
}

exception
  Partition_invariant of {
    stage : string;   (** the variant whose final flush caught it *)
    k : int;
    size : int;       (** the offending cluster's size, [< k+1] *)
    radius : int;
    members : int list;  (** the cluster's nodes, ascending *)
  }
(** Raised when a cluster still in play after the last iteration is
    smaller than [k+1] — a violation of the doubling invariant
    (Lemma 3.4: every surviving cluster at least doubles per iteration).
    Carries the offending cluster so property tests can shrink to a
    minimal witness.  A printer is registered with {!Printexc}. *)

val run_1 :
  ?small:(Tree.t -> Small_dom_set.t) -> ?trace:Kdom_congest.Trace.t -> Graph.t -> k:int -> result
val run_2 :
  ?small:(Tree.t -> Small_dom_set.t) -> ?trace:Kdom_congest.Trace.t -> Graph.t -> k:int -> result
val run :
  ?small:(Tree.t -> Small_dom_set.t) -> ?trace:Kdom_congest.Trace.t -> Graph.t -> k:int -> result
(** All three require a tree with [n >= max 2 (k+1)] nodes and [k >= 1].
    With [?trace] every iteration is recorded as a [dom_partition.iter[i]]
    span charging what the ledger charges (plus a [dom_partition.s_merge]
    span when the S-set resolution pays its [2k + 2] rounds). *)

val partition : Graph.t -> result -> Cluster.partition
(** Package the clusters as a checked {!Cluster.partition};
    {!Cluster.plan_of_partition} turns it into a repair/serving plan. *)

val max_radius : result -> int
val min_size : result -> int
