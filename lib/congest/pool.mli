(** Fixed-size fork/join worker pool over stdlib [Domain].

    The single coordination pattern the sharded engine needs: run one
    closure per shard index in parallel, then barrier.  The calling domain
    doubles as worker 0, so [with_pool ~domains:d] spawns [d - 1] domains.

    The mutex hand-off around each job gives the usual happens-before
    guarantee: writes performed inside [run t f] by any worker are visible
    to every reader after [run] returns, and writes performed before [run]
    is called are visible to every worker.  Phase-structured algorithms
    (write in phase N, read in phase N+1) therefore never race. *)

type t

val size : t -> int

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f i] for every [i] in [0 .. size - 1] (worker 0 on
    the calling domain) and returns when all have finished.  If any worker
    raises, the exception of the lowest-indexed failing worker is re-raised
    after the barrier. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] spawns [domains - 1] worker domains, calls [f]
    and joins the workers however [f] returns.  [domains = 1] spawns
    nothing and [run] degenerates to a direct call.  Raises
    [Invalid_argument] when [domains < 1]. *)
