(** Weighted undirected graphs.

    Nodes are the integers [0 .. n-1].  Edges carry integer weights; the
    paper assumes distinct, polynomially bounded weights so that an edge
    weight fits in one [O(log n)]-bit message and the MST is unique.  The
    structure is immutable once built. *)

type edge = { u : int; v : int; w : int; id : int }
(** An undirected edge between [u] and [v] ([u < v]) with weight [w].
    [id] is the index of the edge in {!edges}. *)

type t
(** A graph. *)

(** {1 Construction} *)

val of_edges : n:int -> (int * int * int) list -> t
(** [of_edges ~n es] builds a graph on [n] nodes from [(u, v, w)] triples.
    Raises [Invalid_argument] on a negative [n], self-loops, endpoints
    outside [0 .. n-1], or duplicate edges (checked in that order: a
    duplicate is reported only when no edge is a self-loop or out of
    range). *)

val of_edge_array : n:int -> (int * int * int) array -> t
(** Array variant of {!of_edges}. *)

(** {1 Accessors} *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of edges. *)

val edges : t -> edge array
(** All edges; index [i] has [id = i]. *)

val edge : t -> int -> edge
(** [edge g id] is the edge with identifier [id]. *)

val neighbors : t -> int -> (int * edge) array
(** [neighbors g v] lists [(u, e)] for each edge [e] incident to [v] with
    opposite endpoint [u], in increasing order of [u]. *)

val degree : t -> int -> int

val other_endpoint : edge -> int -> int
(** [other_endpoint e v] is the endpoint of [e] that is not [v]. *)

val find_edge : t -> int -> int -> edge option
(** [find_edge g u v] is the edge joining [u] and [v], if any. *)

val total_weight : t -> int
(** Sum of all edge weights. *)

val has_distinct_weights : t -> bool
(** Whether all edge weights are pairwise distinct (MST uniqueness). *)

val is_connected : t -> bool

(** {1 Derived graphs} *)

val subgraph_of_edges : t -> edge list -> t
(** [subgraph_of_edges g es] is the graph on the same node set containing
    exactly the edges [es] (which must be edges of [g]). *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump, for debugging and examples. *)
