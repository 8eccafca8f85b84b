(** Algorithm [DiamDOM] — small k-dominating set on a tree in diameter time
    (§2.2, Figs. 1–3).

    Message-level CONGEST implementation.  After Procedure [Initialize]
    ({!Bfs_tree}), the [k+1] census convergecasts run fully pipelined: the
    [census(l)] counter of a node at depth [i] travels at round
    [l + (M - i)], so consecutive censuses never collide on an edge (the
    crucial observation of Lemma 2.3).  The root compares the census totals
    and broadcasts the index of the smallest class.

    Faithfulness note: the level class [D_l] alone is not k-dominating for
    [l] larger than the depth of some branch (see the [lemma-2.1 gap] test
    in [test_graph.ml]); as in {!Kdom_graph.Domination.bfs_levels} the root
    is added to the selected class, so the output size is bounded by
    [ceil(n/(k+1))] rather than the paper's floor.  When the tree height
    [M <= k] no census runs and the output is the root alone. *)

open Kdom_graph
open Kdom_congest

type result = {
  dominating : bool array;   (** membership in the output set D *)
  level : int option;        (** selected class; [None] when [M <= k] *)
  init : Bfs_tree.info;
  init_stats : Engine.stats;
  census_stats : Engine.stats option;  (** [None] when no census ran *)
  rounds : int;              (** total rounds across both stages *)
}

type census_state
(** Per-node state of the census stage, for use with {!census_algorithm}. *)

val census_algorithm :
  Bfs_tree.info -> k:int -> census_state Engine.ealgorithm
(** The census/decision node program on a prebuilt BFS tree: frames are
    decoded in place and written straight into the packed send arena, so
    the census runs allocation-free in steady state.  This is the kernel
    {!run} executes; it is exposed for differential testing and
    asynchronous execution. *)

val census_max_words : int
(** Declared word budget of the census stage:
    [| tag; level; counter |] — 3 words. *)

val dominating_of_states : census_state array -> bool array
(** Decode membership in the output set D from an execution's final state
    vector, whichever executor produced it. *)

val run : ?trace:Trace.t -> Graph.t -> root:int -> k:int -> result
(** Requires a tree ([m = n-1], connected) and [k >= 1].  With [?trace]
    the run is recorded as [diam_dom] > [diam_dom.init] + [diam_dom.census],
    the latter carrying one synthetic [diam_dom.census[l]] span per
    pipelined census. *)

val round_bound : diam:int -> k:int -> int
(** [5 * diam + k + 10] — the Lemma 2.3 shape with a small additive
    constant for the handshakes; every measured run must stay below it. *)

val dominating_list : result -> int list

val redominate : Graph.t -> members:int list -> k:int -> int list
(** [redominate g ~members ~k] reruns [DiamDOM] on the subgraph induced by
    [members] (which must induce a tree — e.g. one surviving cluster of a
    tree host), rooted at the smallest member id, and returns the new
    dominators as host ids.  The centralized mirror of
    [Kdom_congest.Repair]'s in-cluster takeover, used by the bench and CLI
    for comparison. *)
