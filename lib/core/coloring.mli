(** O(log* n) symmetry breaking on rooted trees.

    The partition algorithms of §3 rest on the [GPS] result: an MIS on an
    n-vertex tree in [O(log* n)] rounds.  This module implements the
    classical chain: Cole–Vishkin bit-reduction to 6 colors, shift-down
    reduction to 3 colors, then MIS (and a maximal matching, used by the
    alternative [Small_dom_set] construction) extracted color class by
    color class.

    Functions take a rooted tree/forest component ({!Kdom_graph.Tree.t})
    and return both the combinatorial result and the number of synchronous
    rounds the computation takes in the CONGEST model; every step uses only
    parent/child exchanges of a single [O(log n)]-bit word, and
    {!three_color_congest} is a full message-level execution of the same
    schedule used to validate the round counts. *)

open Kdom_graph
open Kdom_congest

type result = {
  colors : int array;  (** proper coloring; [-1] outside the component *)
  palette : int;       (** colors take values in [\[0, palette)] *)
  rounds : int;        (** synchronous rounds charged *)
}

val cv_iterations : int -> int
(** Number of Cole–Vishkin iterations needed to reduce a palette of the
    given size to at most 6 colors. This is [O(log* n)] and is what every
    node computes locally from [n] to know when to stop. *)

val six_color : Tree.t -> result
(** Cole–Vishkin bit reduction starting from identity colors. *)

val three_color : Tree.t -> result
(** {!six_color} followed by three shift-down/recolor steps. *)

val mis : Tree.t -> bool array * int
(** Maximal independent set from {!three_color}, color class by color
    class; [(in_mis, rounds)]. *)

val maximal_matching : Tree.t -> int array * int
(** Maximal matching from {!three_color}: color class by color class,
    unmatched nodes propose to their parent, parents accept one proposer.
    [(mate, rounds)] with [mate.(v) = -1] when unmatched. *)

type congest_state
(** Per-node state of the message-level protocol, for use with
    {!congest_algorithm}. *)

val congest_algorithm : Graph.t -> root:int -> congest_state Engine.ealgorithm
(** The message-level Cole–Vishkin + shift-down node program, exposed for
    differential testing and asynchronous execution. *)

val congest_max_words : int
(** Declared word budget: every message is one bare color — 1 word. *)

val colors_of_states : congest_state array -> int array
(** Decode the final color per node from an execution's state vector
    (whichever executor produced it). *)

val three_color_congest :
  ?trace:Trace.t -> Graph.t -> root:int -> int array * Engine.stats
(** Message-level CONGEST execution of {!three_color} on a tree graph
    rooted at [root]: every round each node sends its current color (one
    word) to its children. Used by tests to confirm that the pure version's
    colors and round counts match a real message-passing run. *)
