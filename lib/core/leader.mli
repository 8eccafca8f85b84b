(** Time-optimal leader election (after [P], cited in §5.2's root
    assumption).

    All nodes start simultaneously; every node floods a BFS wave carrying
    its {!key}, waves carrying smaller keys die whenever they meet a node
    that has already heard a larger one, and each wave performs a BFS
    echo.  Only the globally maximal key's wave can cover the whole graph,
    so only its originator collects a complete echo; it then declares
    itself leader and broadcasts its id over its BFS tree.

    Runs in [O(Diam)] rounds at full message level ([O(log n)]-bit
    messages, one per edge per round).  Nodes know [n], which fixes the
    key width.  Keys are a fixed pseudo-random order of the ids, so a wave
    passes node [v] only if no origin with a larger key is closer to [v]:
    [v] forwards [O(log n)] waves in expectation and a run sends
    [O(m log n)] messages in expectation, whatever the id layout (ordering
    by raw id costs [Θ(m·Diam)] on a grid's row-major ids).  The paper's
    [FastMST] assumes a designated root, and this module discharges that
    assumption: {!Fast_mst.run} can be pointed at {!elect}'s winner for a
    fully self-contained execution. *)

open Kdom_graph
open Kdom_congest

type result = {
  leader : int;            (** the node with the maximum {!key} *)
  parent : int array;      (** BFS tree rooted at the leader; [-1] at the leader *)
  depth : int array;       (** distance from the leader *)
  stats : Engine.stats;
}

type state
(** Per-node state of the protocol.  Mutable: a step updates it in place
    (a sorted neighbour array, one flag byte per neighbour and integer
    counters), so every execution must start from fresh [einit] states
    — which every executor does. *)

val algorithm : Graph.t -> state Engine.ealgorithm
(** The wave/echo node program: frames are read in place
    ({!Engine.Inbox.read}) and sent with the fixed-arity
    [Emit.frame2]/[frame3] helpers, so a steady-state step allocates
    nothing.  Wave upgrades use {!Repair.wave_prefers}.  Run it with
    {!Runtime.run} at {!max_words}. *)

val key : n:int -> int -> int
(** [key ~n v] is the wave key of node [v] in an [n]-node graph:
    [(h v land (2^b - 1)) lsl b lor v] with [b = ⌈log2 n⌉] and [h] the
    murmur3 32-bit finaliser.  The low bits are the id, so keys are unique
    and [2b] bits wide — one [O(log n)]-bit word.  The winner of {!elect}
    is the argmax of [key ~n] over all nodes.  Raises [Invalid_argument]
    unless [0 <= v < n]. *)

val max_words : int
(** Declared word budget: [| tag; wave key; depth |] — 3 words. *)

val result_of_states : state array -> Engine.stats -> result
(** Decode (and cross-validate) the outcome from an execution's final
    state vector, whichever executor produced it; raises
    [Invalid_argument] if the vector is empty, if any node disagrees on
    the leader, or if any node's wave is not the leader's key. *)

val elect : ?trace:Trace.t -> Graph.t -> result
(** Requires a connected graph with at least one node; raises
    [Invalid_argument] otherwise.  With [?trace] the run is recorded under
    a [leader.elect] span. *)

val round_bound : diam:int -> int
(** [5 * diam + 10] — the O(Diam) shape checked by the tests. *)
