(** Hash tables keyed by [int], without the polymorphic [Hashtbl.hash] and
    structural equality: the bookkeeping of the phase-level algorithms
    (local numbering, cluster membership, contracted-edge deduplication)
    looks up millions of node ids per run. *)

include Hashtbl.S with type key = int
