(** Clusters and partitions of a host graph.

    A cluster is a set of nodes together with a designated {e center} (the
    paper's dominator / fragment root).  A partition is a family of disjoint
    clusters covering all nodes.  The paper's guarantees are stated on these
    objects: cluster size lower bounds (Definition 3.1), cluster radius
    upper bounds (Lemmas 3.4, 3.6, 3.7), and the dominating-set size bound
    (Corollary 3.9).  All checkers here measure distance {e inside the
    cluster's induced subgraph} of the host, matching the paper's notion of
    a [(sigma, rho)] spanning forest built from tree edges. *)

open Kdom_graph

type t = { center : int; members : int list }

type partition = { host : Graph.t; clusters : t list }

val partition : Graph.t -> t list -> partition
(** Checks disjointness, coverage, membership of each center in its own
    cluster; raises [Invalid_argument] otherwise. *)

val cluster_of_array : partition -> int array
(** Node -> index of its cluster in [clusters]. *)

val owners : Graph.t -> int list array -> int array
(** [owners host members]: the owner map of disjoint member lists, host
    node -> position [i] of the list holding it, [-1] for nodes of none.
    The input of {!bfs_trees} and {!quotient}. *)

val bfs_trees :
  Graph.t ->
  owner:int array ->
  queue:int array ->
  visit:(int -> int -> unit) ->
  t array ->
  int array
(** [bfs_trees host ~owner ~queue ~visit cs] runs, for each disjoint
    cluster [cs.(i)], one BFS from its center through the nodes [u] with
    [owner.(u) = i] (the induced subgraph of its members), calling
    [visit u v] when it reaches [u] from [v], neighbours in
    {!Graph.neighbors} order.  Returns the radii.  [owner] is consumed:
    every visited node is set to [-2].  [queue] needs room for the largest
    cluster.  Raises [Invalid_argument] if a center is not owned by its
    cluster or a cluster's induced subgraph is disconnected. *)

val centers : partition -> int list

val radius : Graph.t -> t -> int
(** Eccentricity of the center inside the induced subgraph of the members.
    Raises if the center is not a member or the induced subgraph is
    disconnected. *)

val max_radius : partition -> int

val min_size : partition -> int

val induced_connected : Graph.t -> t -> bool

val singleton : int -> t

val size : t -> int

val plan_of_partition : partition -> Kdom_congest.Repair.plan
(** Materialize a partition as a serving/repair plan: per node, its
    dominator (cluster center) and its parent/depth in the {!bfs_trees}
    tree of its cluster, rooted at the center ([parent = -1],
    [depth = 0]) — the structure [Kdom_congest.Repair] maintains under
    churn.  [plan_of_partition (Dom_partition.partition g r)] is the plan
    of a [Dom_partition] result.  Works on disconnected hosts as long as each
    cluster's induced subgraph is connected (raises otherwise). *)

val plan_of_centers : Graph.t -> int list -> Kdom_congest.Repair.plan
(** Voronoi plan around a center list: each node joins its nearest center
    (ties by BFS visit order) with the multi-source BFS tree as cluster
    tree, so [depth] is the true hop distance to the dominator.  Nodes
    unreachable from every center keep the joiner sentinel
    [(-1, -1, 0)].  Centralized and O(m) — the cheap way to stand up a
    servable forest at benchmark scale (millions of nodes) where the
    full FastDOM construction is not the thing being measured.  Raises
    [Invalid_argument] on an empty or out-of-range center list. *)

val induced : Graph.t -> int list -> Graph.t * int array
(** [induced g members] extracts the subgraph induced by [members] with
    nodes renumbered [0 .. |members|-1]; returns it with the
    local-to-host index map.  Edge weights are preserved. *)

val quotient : Graph.t -> owner:int array -> int -> Graph.t * Graph.edge array
(** [quotient host ~owner nc] contracts the clusters [0 .. nc-1] of the
    owner map to one node each (nodes with a negative owner are ignored)
    and keeps one unit-weight edge per pair of adjacent clusters.  The
    pair's witness is its first host edge in edge-id order; quotient edge
    [i] has witness [witnesses.(i)], so quotient edges are listed in the
    order of their witnesses' ids.  [Hierarchy] weights the quotient's
    edges by id, so this order is load-bearing. *)

val quotient_graph : partition -> Graph.t * (int * int) list
(** [quotient_graph p] contracts every cluster to one node (numbered by the
    position of the cluster in [p.clusters]) and keeps one edge between each
    pair of adjacent clusters.  Returns the contracted graph (unit weights)
    and, for bookkeeping, the list of host-edge endpoints
    [(host_u, host_v)] chosen as the witness of each contracted edge, in
    the same order as the contracted graph's edge array. *)
