(** Algorithm [BalancedDOM] (Fig. 4, Lemma 3.3).

    Takes the dominating set and star partition produced by
    {!Small_dom_set} and repairs singleton clusters so that the output is a
    {e balanced} dominating set (Definition 3.1 of §3.1):

    {ul
    {- (a) [|D| <= floor(n/2)],}
    {- (b) [D] dominates and every cluster is a star around its dominator,}
    {- (c) every cluster has at least two nodes.}}

    Steps 2–4 of the figure: a singleton dominator quits [D] and selects a
    neighbor outside [D]; that neighbor enters [D] with a fresh cluster of
    its selectors; a dominator whose cluster was emptied by those
    defections joins the new cluster of one of its defectors and quits [D].
    Total extra cost is O(1) rounds on top of [Small-Dom-Set].

    Requires a tree component of at least 2 nodes. *)

open Kdom_graph

type t = {
  dominating : bool array;
  dominator : int array;   (** star center of every component node *)
  rounds : int;
}

val run : ?small:(Tree.t -> Small_dom_set.t) -> Tree.t -> t
(** [small] defaults to {!Small_dom_set.via_mis} — the paper's choice. *)

val stars : Tree.t -> t -> (int * int list) list
(** [(center, members)] clusters, as {!Small_dom_set.stars}. *)
