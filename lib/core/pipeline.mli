(** Procedure [Pipeline] (§5.1, Fig. 8) — global edge elimination by
    pipelined convergecast, at full message level.

    Given a BFS tree [B] of [G] and a fragment labelling (from
    {!Fastdom_graph}), every node repeatedly upcasts, in nondecreasing
    weight order, the lightest known inter-fragment edge that does not
    close a cycle (over the fragment graph) with the edges it has already
    upcast; an edge that would close such a cycle is discarded (the "red
    rule").  A node terminates when no reportable candidates remain.  The
    root assembles the inter-fragment MST [S] locally and broadcasts it.

    The paper's analytical core (Lemma 5.3) is that this process is {e
    fully pipelined}: whenever a node still has a non-terminated child, its
    candidate set is non-empty, so it never idles — giving the
    [O(N + Diam(G))] bound of Lemma 5.5.  The runtime records every round
    in which a started node with an active child had an empty candidate
    set ({!result.stalls}); Lemma 5.3 predicts zero, and the tests assert
    it.  (In that impossible case this implementation waits rather than
    terminating, so a violation would be measured, not crash.)

    Setting [eliminate_cycles:false] disables the red rule, turning the
    procedure into the trivial "collect every edge at the root" algorithm
    the paper compares against (§1.2); combined with singleton fragments
    this is the [Collect_all] baseline of the benchmarks. *)

open Kdom_graph
open Kdom_congest

type result = {
  selected : Graph.edge list;
    (** the [N-1] inter-fragment edges of the MST of the fragment graph *)
  upcast_stats : Engine.stats;  (** the convergecast proper *)
  broadcast_rounds : int;
    (** charged rounds for streaming [S] back down [B]:
        [max 0 (|S|-1) + height + 1] *)
  rounds : int;                  (** upcast + broadcast *)
  stalls : int;                  (** Lemma 5.3 violations observed (0) *)
  started_at : int array;        (** first-send round per node *)
  root_received : int;           (** edges that reached the root *)
}

type node_state
(** Per-node state of the convergecast, for use with {!algorithm}. *)

val algorithm :
  ?eliminate_cycles:bool ->
  Graph.t ->
  bfs:Bfs_tree.info ->
  fragment_of:int array ->
  node_state Engine.ealgorithm * int ref
(** The upcast node program plus its stall counter (incremented whenever a
    started node with an active child has no candidate — Lemma 5.3 says
    never), exposed for differential testing. *)

val max_words : int
(** Declared word budget: [| tag; edge id; frag u; frag v; weight |] is 5
    words, declared as 6 for one word of slack. *)

val selected_of_states :
  Graph.t -> fragment_of:int array -> root:int -> node_state array -> Graph.edge list
(** Decode the inter-fragment MST from an execution's final state vector
    (the root's assembled edge set run through the red rule once more),
    whichever executor produced it. *)

val run :
  ?eliminate_cycles:bool ->
  ?trace:Trace.t ->
  Graph.t ->
  bfs:Bfs_tree.info ->
  fragment_of:int array ->
  result
(** [fragment_of] labels every node with its fragment; edges between
    distinct fragments are the candidates.  Requires distinct weights.
    With [?trace] the run is recorded as [pipeline.upcast] (message-level)
    followed by a [pipeline.broadcast] span charging [broadcast_rounds]. *)

val round_bound : diam:int -> fragments:int -> int
(** [O(N + Diam)] in the explicit form [2 * diam + fragments + 12] used by
    the tests (upcast stage only, cycle elimination on). *)
