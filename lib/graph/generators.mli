(** Workload generators.

    The paper has no datasets; its claims are parameterized by the number of
    nodes [n], the parameter [k], and the diameter.  These generators produce
    the graph families used throughout the tests, examples and benchmarks:
    tree families that stress depth/branching extremes, and general-graph
    families with controllable diameter (the quantity that decides who wins
    in Theorem 5.6).  All edge weights are random and pairwise distinct, so
    the MST is unique; all randomness comes from an explicit {!Rng.t}. *)

(** {1 Tree families} *)

val path : rng:Rng.t -> int -> Graph.t
(** Path on [n] nodes — maximal diameter tree. *)

val star : rng:Rng.t -> int -> Graph.t
(** Star on [n] nodes — minimal diameter tree. *)

val binary_tree : rng:Rng.t -> int -> Graph.t
(** Complete-ish binary tree on [n] nodes (node [i]'s parent is
    [(i-1)/2]). *)

val caterpillar : rng:Rng.t -> spine:int -> legs:int -> Graph.t
(** A spine path with [legs] pendant leaves on every spine node. *)

val broom : rng:Rng.t -> handle:int -> bristles:int -> Graph.t
(** A path of [handle] nodes whose last node carries [bristles] leaves —
    a tree with one deep, thin part and one shallow, bushy part. *)

val random_tree : rng:Rng.t -> int -> Graph.t
(** Uniformly random labelled tree (Prüfer sequence). *)

val random_attachment_tree : rng:Rng.t -> int -> Graph.t
(** Each node [i >= 1] attaches to a uniformly random earlier node —
    low-diameter random trees. *)

(** {1 General graph families} *)

val cycle : rng:Rng.t -> int -> Graph.t

val complete : rng:Rng.t -> int -> Graph.t

val grid : rng:Rng.t -> rows:int -> cols:int -> Graph.t
(** [rows*cols] grid; diameter [rows+cols-2]. *)

val torus : rng:Rng.t -> rows:int -> cols:int -> Graph.t

val gnp_connected : rng:Rng.t -> n:int -> p:float -> Graph.t
(** Erdős–Rényi G(n,p) made connected by adding a uniformly random spanning
    tree of the gaps — low diameter for p above the connectivity
    threshold. *)

val lollipop : rng:Rng.t -> clique:int -> tail:int -> Graph.t
(** A clique with a path tail: dense part with small diameter attached to a
    long thin part. Exercises the [Diam]-dependent terms. *)

val barbell : rng:Rng.t -> clique:int -> bridge:int -> Graph.t
(** Two cliques joined by a path of [bridge] nodes. *)

val ladder : rng:Rng.t -> int -> Graph.t
(** 2×len grid — constant width, diameter Θ(n). *)

val random_regular : rng:Rng.t -> n:int -> d:int -> Graph.t
(** Random [d]-regular-ish multigraph via the pairing model with rejection
    of loops/multi-edges (retrying); expander-like, diameter O(log n).
    Requires [n*d] even and [d < n]. *)

val hidden_path : rng:Rng.t -> n:int -> shortcuts:int -> Graph.t
(** A Hamiltonian path whose edges carry the [n-1] {e smallest} weights, so
    the unique MST is the path itself, plus [shortcuts] random heavy extra
    edges that collapse the diameter to [O(log n)] (for
    [shortcuts >= n]).  The adversarial family for Theorem 5.6: GHS-style
    fragment trees grow [Theta(n)] deep while [Diam(G)] stays tiny, which
    is exactly the regime where [FastMST]'s [O(sqrt(n) log* n + Diam)]
    beats [O(n)]-ish fragment algorithms. *)

val preferential_attachment : rng:Rng.t -> n:int -> m:int -> Graph.t
(** Barabási–Albert preferential attachment: each node [i >= 1] attaches
    [min i m] edges to distinct earlier nodes drawn with probability
    proportional to degree (endpoint-multiset draw, every joining node
    seeded once).  Power-law degree tail, diameter [O(log n)] — the
    dynamic-bench family whose hubs make dominator crashes maximally
    disruptive.  Connected by construction.  Requires [1 <= m < n]. *)

val random_geometric : rng:Rng.t -> n:int -> radius:float -> Graph.t
(** Random geometric graph: [n] points uniform on the unit square, nodes
    within [radius] adjacent, made connected by a random spanning skeleton
    over the components (as {!gnp_connected}).  Cell-grid neighbor search
    keeps generation O(n) at constant expected degree
    ([pi * radius^2 * n]), so million-node instances are practical.
    Requires [0 < radius <= 1]. *)

(** {1 Sharding} *)

val shard_partition : Graph.t -> shards:int -> int array
(** Degree-balanced shard assignment for the sharded engine
    ([Kdom_congest.Engine.exec_emit ~partition]): longest-processing-time bin
    packing, heaviest node (weight [degree + 1]) first onto the lightest
    bin.  Deterministic.  The heaviest bin is within the classical LPT
    factor [4/3 - 1/(3 shards)] of the optimal assignment, hence within 2x
    of the lower bound [max (total / shards) (max degree + 1)] — the
    property [test_graph] checks on skewed degree sequences. *)

(** {1 Weights} *)

val reweight : rng:Rng.t -> Graph.t -> Graph.t
(** Fresh random distinct weights on the same topology. *)
