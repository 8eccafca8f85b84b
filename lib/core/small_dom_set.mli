(** Procedure [Small-Dom-Set] (Lemma 3.2, after [GKP]).

    Computes, on a tree, a dominating set [D] and a partition of the nodes
    into {e stars}: each cluster consists of a center in [D] plus members
    adjacent to it.  Two constructions are provided, both running in
    [O(log* n)] rounds on top of {!Coloring}:

    {ul
    {- {!via_mis} — the [GKP]-style construction the paper builds on: [D] is
       an MIS and every non-MIS node adopts an adjacent MIS node.  All of
       Lemma 3.2's properties hold ({e D dominating}; every node of [D] has
       a neighbor outside [D]) except the [ceil(n/2)] size bound, which can
       fail (e.g. a star whose MIS is its leaves); the paper's
       [BalancedDOM] wrapper (Fig. 4) restores it by eliminating singleton
       clusters, which is the only context in which the procedure is
       used.}
    {- {!via_matching} — an alternative from a maximal matching whose output
       is already balanced: no singleton clusters, hence [|D| <= floor(n/2)]
       directly.  Used as an ablation in the benches.}} *)

open Kdom_graph

type t = {
  dominating : bool array;  (** membership in D; defined on component nodes *)
  dominator : int array;    (** star center of every component node
                                ([v] itself when [v] is a center);
                                [-1] outside the component *)
  rounds : int;             (** synchronous rounds charged *)
}

val via_mis : Tree.t -> t
(** Requires a component of size >= 1. A component of size 1 yields the
    node itself as a (necessarily singleton) dominator. *)

val via_matching : Tree.t -> t
(** Requires a component of size >= 2. *)

val stars : Tree.t -> t -> (int * int list) list
(** [(center, members)] clusters of the star partition, in ascending center
    order; members include the center and are listed in descending id. *)
