(** Algorithm [Fast_MST] (§5.2, Theorem 5.6): distributed MST in
    [O(sqrt(n) log* n + Diam(G))] rounds.

    Two parts, exactly as the paper composes them:

    + [FastDOM_G] with [k = ceil(sqrt n)] — a partition into [O(sqrt n)]
      MST fragments of radius [O(sqrt n)], in [O(sqrt n log* n)] rounds;
    + a BFS tree from a designated root plus {!Pipeline} — the surviving
      inter-fragment edges converge to the root fully pipelined in
      [O(sqrt n + Diam)] rounds, the root finishes the MST locally and
      broadcasts it.

    The output is verified by the tests against the unique sequential MST
    (weights are distinct). *)

open Kdom_graph
open Kdom_congest

type result = {
  mst : Graph.edge list;           (** the complete MST of [G] *)
  k : int;                         (** the [sqrt n] parameter used *)
  fragments : Simple_mst.fragment list;
  dominating : int list;           (** the sqrt(n)-dominating set built on the way *)
  pipeline : Pipeline.result;
  root : int;                      (** root of the pipeline's BFS tree: [?root] or the elected leader *)
  bfs_stats : Engine.stats;       (** the BFS tree stage, or the whole election *)
  ledger : Ledger.t;
  rounds : int;
}

val run :
  ?root:int ->
  ?small:(Tree.t -> Small_dom_set.t) ->
  ?trace:Kdom_congest.Trace.t ->
  Graph.t ->
  result
(** Requires a connected graph with distinct weights and [n >= 1].
    [root] (default 0) plays the paper's designated-leader role; a leader
    election would add [O(Diam)] rounds.  With [?trace] the whole
    composition is recorded under a [fast_mst] span (BFS, forest,
    per-fragment FastDOM_T and pipeline sub-spans included). *)

val run_elected :
  ?small:(Tree.t -> Small_dom_set.t) -> ?trace:Kdom_congest.Trace.t -> Graph.t -> result
(** Fully self-contained variant: run {!Leader.elect} first ([O(Diam)]
    extra rounds, charged in the ledger), and reuse the election's BFS
    tree for the pipeline instead of rebuilding one. *)

val round_bound : n:int -> diam:int -> int
(** [c * (sqrt n * log* n + diam)] — the Theorem 5.6 shape used by the
    tests and benches. *)
