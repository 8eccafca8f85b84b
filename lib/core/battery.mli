(** The message-level algorithm battery: the six node programs that the
    fault matrix, the chaos suite, the [kdom faults]/[chaos]/[trace]
    subcommands and the bench fault smoke run under faulty networks, each
    with its word budget and an output oracle over the decoded final
    states.  Every program runs from root [0] where it needs a root. *)

open Kdom_graph

val names : string list
(** ["bfs"; "coloring"; "census"; "leader"; "smc"; "pipeline"]. *)

val case : Graph.t -> k:int -> string -> Kdom_congest.Chaos.case option
(** [case g ~k name] is the named algorithm on [g], its word budget, a
    fresh node program per call and its oracle (which raises [Failure]
    naming every violated invariant):

    - ["bfs"]: {!Bfs_tree} — a BFS tree from node 0;
    - ["coloring"]: {!Coloring.congest_algorithm} — a proper 3-coloring;
    - ["census"]: the {!Diam_dom} census stage over {!Bfs_tree.run}'s
      tree — a k-dominating set of at most [ceil(n / (k + 1))] nodes;
    - ["leader"]: {!Leader} — the max-{!Leader.key} node is elected and
      the BFS tree it leaves is sound;
    - ["smc"]: {!Simple_mst_congest} with [k] — a partition into
      fragments of at least [min (k + 1) n] nodes spanned by MST edges;
    - ["pipeline"]: {!Pipeline} over {!Fastdom_graph.run}'s fragments —
      the inter-fragment MST.

    [None] when the algorithm has no stage on this instance: census on a
    tree of height at most [k].  Raises [Invalid_argument] on an unknown
    name, or on coloring and census when [g] is not a tree. *)
