(** End-to-end output oracles: centralized invariant checkers the fault
    harness runs after every trial.

    A faulty execution ({!Async.run_reliable} under a {!Faults} regime) is
    accepted only if (a) its final states are bit-identical to the
    synchronous {!Runtime.run} and (b) the decoded outputs satisfy the
    paper's invariants.  (a) is a strong check but is only as good as the
    reference execution; (b) is checked here directly against the graph, so
    a bug that breaks both executions identically is still caught.

    Checkers take plain graphs and arrays/lists — no dependency on the
    algorithm modules — and return a (possibly empty) list of {!failure}s,
    so a harness can run many checks and report everything that broke.
    All checkers are centralized and intended for test/bench-sized
    instances. *)

open Kdom_graph

type failure = {
  check : string;  (** which oracle failed, e.g. ["k-domination"] *)
  detail : string;  (** what was violated, with a witness where possible *)
}

val describe : failure list -> string
(** ["ok"] for an empty list; otherwise the failures, one per line. *)

val expect_ok : string -> failure list -> unit
(** Raise [Failure] with a descriptive message unless the list is empty.
    The string names the trial (algorithm, graph, fault regime). *)

(** {1 Domination oracles} *)

val radius_within : Graph.t -> centers:int list -> bound:int -> failure list
(** Every node of every component is within [bound] hops of a center —
    i.e. [centers] is [bound]-dominating; reports the actual coverage
    radius on failure. *)

val k_domination : Graph.t -> k:int -> int list -> failure list
(** [radius_within ~bound:k] under its paper name. *)

val eventual_k_domination :
  ?extra:(int * int) list ->
  Graph.t ->
  alive:bool array ->
  dead_edges:(int * int) list ->
  centers:int list ->
  bound:int ->
  failure list
(** The self-healing invariant: after churn ([alive] =
    [Engine.Churn.final_alive], [dead_edges] =
    [Engine.Churn.final_edges_down] — an undirected edge counts as dead
    when either direction is down), every {e surviving} node must be
    within [bound] hops of a {e live} center, measured inside the
    surviving graph, judged per surviving component.  A component with no
    live center fails once (with a member as witness); a covered
    component fails per node beyond the bound, with the distance as
    witness.  Dead centers are ignored; crashed nodes are exempt.

    [extra] lists undirected edges {e not} present in [g] — reserved
    capacity brought online by [Engine.Churn.Edge_add] — which count as
    usable links under the same [alive]/[dead_edges] filters, so the
    oracle judges the post-insertion graph. *)

val size_within : n:int -> k:int -> ?ceil:bool -> int list -> failure list
(** [|D| <= max 1 (floor (n/(k+1)))] (the paper's target), or the
    root-augmented [ceil] variant actually achieved by the census stage
    (see {!Kdom_graph.Domination.size_bound_ceil}). *)

(** {1 Tree / forest oracles} *)

val bfs_tree :
  Graph.t -> root:int -> parent:int array -> depth:int array -> failure list
(** [parent]/[depth] describe a valid BFS tree of the connected graph:
    the root has depth 0 and no parent, every other node's parent is a
    neighbor one level shallower, and [depth] equals the true hop
    distance from [root]. *)

val proper_coloring : Graph.t -> palette:int -> int array -> failure list
(** Adjacent nodes get distinct colors, all in [\[0, palette)]. *)

val agreement : expected:int -> int array -> failure list
(** Every entry equals [expected] (leader election outcome). *)

val mst_subforest : Graph.t -> int list -> failure list
(** The edge ids form a cycle-free subgraph of the graph's unique MST
    (requires distinct weights). *)

val partition :
  Graph.t -> fragment_of:int array -> min_size:int -> failure list
(** [fragment_of] labels every node with a fragment id [>= 0]; every
    fragment induces a connected subgraph of size [>= min_size]. *)

val inter_fragment_mst :
  Graph.t -> fragment_of:int array -> int list -> failure list
(** The selected edge ids are exactly the MST of the contracted fragment
    multigraph — the output contract of the §5.1 [Pipeline] (requires
    distinct weights). *)
