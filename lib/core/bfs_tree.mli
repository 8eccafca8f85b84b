(** Distributed BFS-tree construction — Procedure [Initialize] (Fig. 1).

    A message-level CONGEST implementation of the paper's initialization:
    build a BFS tree from a root, label every node with its depth, let every
    node learn its tree children (and which incident edges are non-tree
    edges), compute the tree height [M] by a convergecast of echoes, and
    broadcast [M] to all nodes.  The paper charges [4 * Diam(G)] rounds for
    this; {!round_bound} is the corresponding checkable bound.

    Scheduling: a node adopted at depth [d] knows its children by round
    [d + 2] (each neighbor answers an exploration with either an adoption
    or its own exploration).  Leaves then echo their depth; internal nodes
    aggregate the maximum once all children reported; the root learns [M]
    and broadcasts it down. *)

open Kdom_graph
open Kdom_congest

type info = {
  root : int;
  depth : int array;
  parent : int array;       (** [-1] at the root *)
  children : int list array;
  height : int;             (** the paper's [M] = max depth *)
  m_known : int array;      (** value of [M] as learned by each node *)
}

type state
(** Per-node state of the protocol, for use with {!algorithm}. *)

val algorithm : Graph.t -> root:int -> state Engine.ealgorithm
(** The node program itself, exposed so it can also be executed by the
    asynchronous α-synchronizer runtime ({!Kdom_congest.Async}).  Frames
    are read in place and sent with the fixed-arity [Emit] helpers. *)

val info_of_states : Graph.t -> root:int -> state array -> info
(** Decode the final states of an {!algorithm} execution. *)

val max_words : int
(** Declared word budget: the widest message carries a tag plus a depth —
    2 words. *)

val run :
  ?trace:Trace.t -> Graph.t -> root:int -> info * Engine.stats
(** [algorithm] executed on the mailbox engine with the declared
    {!max_words} budget.  Requires a connected graph.  With [?trace] the
    execution is recorded under a [bfs_tree] span. *)

val of_parents : Graph.t -> root:int -> parent:int array -> depth:int array -> info
(** Package an externally constructed BFS tree (e.g. the one a
    {!Leader.elect} run leaves behind) as an [info]; children lists and the
    height are derived, and parent/depth consistency is checked. *)

val round_bound : diam:int -> int
(** [4 * diam + 5] — generous form of the paper's [4 * Diam(G)] charge
    (the additive constant covers the child-discovery handshake on
    degenerate one/two-node graphs). *)
