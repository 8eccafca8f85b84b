(** Baseline: collect the whole topology at a root and solve locally.

    §1.2 observes that with unbounded messages the MST is trivially solved
    in [O(Diam)] time by collecting the graph at a node; under the
    [O(log n)]-bit message regime the same strategy costs
    [Theta(m + Diam)] rounds because every edge description must flow,
    one per round per tree edge, through the BFS tree.  Implemented as
    {!Pipeline} with singleton fragments and cycle elimination disabled,
    so the comparison against [Fast_MST] isolates exactly what the paper's
    two ideas (fragments + the red rule) buy. *)

open Kdom_graph
open Kdom_congest

type result = {
  mst : Graph.edge list;
  pipeline : Pipeline.result;
  bfs_stats : Engine.stats;
  rounds : int;
  edges_at_root : int;   (** how many edge descriptions reached the root *)
}

val run : ?root:int -> Graph.t -> result
(** Requires a connected graph with distinct weights. *)
