(** Span-based tracing for the CONGEST engine.

    A trace is a single monotonic {e round clock} shared by every execution
    a composite algorithm performs — engine runs advance it by one per
    delivery round (pulse, for the asynchronous executors), phase-level
    stages advance it with explicit {!charge}s — plus a tree of named
    {e spans} laid out on that clock.  Composite algorithms open one span
    per logical phase ([simple_mst.phase[i]], [diam_dom.census[l]],
    [dom_partition.iter[i]], [fastdom_g.fragment[f]]), so the paper's
    phase-level round bounds become observable, machine-checkable
    quantities: {!Metrics} aggregates per-span round/message totals and the
    tests assert e.g. that span [simple_mst.phase[i]] spends at most
    [5*2^i + 2] rounds (Lemma 4.3).

    Span naming convention: [<algorithm>[.<stage>]] in snake case, with a
    bracketed integer index for repeated phases — [bfs_tree],
    [diam_dom.census[3]], [fastdom_g.fragment[0]].  Indexes use the
    paper's numbering (phases and iterations count from 1, census levels
    and fragments from 0).

    The trace observes message traffic through an ordinary {!Engine.Sink}
    ({!sink} / {!observe}), so it composes with user sinks via
    {!Engine.Sink.tee} and costs nothing when absent: every runner takes a
    [?trace] option and the [None] path does not allocate.  Raw sinks
    attach at the executors ({!Engine.exec_emit}, {!Runtime.run},
    {!Runtime.run_reference}, {!Async.run_reliable}), which every runner's
    exported [algorithm] can be passed to.

    Exporters: {!export_chrome} writes Chrome trace-event JSON
    (load it at ui.perfetto.dev or chrome://tracing); {!export_jsonl}
    writes the versioned JSONL schema ({!schema_version}), one
    self-describing record per line, validated by {!validate_channel}. *)

type t
(** A mutable trace under construction. *)

type span = {
  id : int;             (** creation order, unique within the trace *)
  name : string;
  parent : int;         (** id of the enclosing span, or [-1] *)
  depth : int;          (** nesting depth at open time *)
  track : int;          (** display track; parallel spans get distinct tracks *)
  start_round : int;
  mutable stop_round : int;  (** exclusive; [-1] while still open *)
}

type span_stats = {
  s_rounds : int;       (** [stop_round - start_round] *)
  s_counts : int array;
      (** every {!Engine.Sink.counter} summed over the round records inside
          the span — e.g. [s_counts.(Engine.Sink.bits)] is the measured
          wire bits delivered during it, and
          [s_counts.(Engine.Sink.skipped) / s_rounds] the average frontier
          saving *)
}

val create : unit -> t

val clock : t -> int
(** The current value of the round clock. *)

val sink : t -> Engine.Sink.t
(** A sink feeding this trace: every [on_round] advances the clock by one
    and buffers the (re-clocked) round record; every [on_message] updates
    the message-width and per-edge congestion accounting. *)

val span : t -> ?track:int -> string -> (unit -> 'a) -> 'a
(** [span t name f] opens a span at the current clock, runs [f], and
    closes the span at the clock [f] reached (also on exception).  Spans
    nest; the innermost open span becomes the parent of spans opened
    inside [f]. *)

val span_opt : t option -> ?track:int -> string -> (unit -> 'a) -> 'a
(** {!span} through an option, running [f] bare when [None] — the shape
    every [?trace]-taking algorithm uses. *)

val observe :
  t option -> max_words:int -> string -> (Engine.Sink.t -> 'a) -> 'a
(** [observe trace ~max_words name f] is how a runner executes one traced
    engine run: with [Some t] it declares the word budget (see
    {!budget}), opens span [name] and calls [f] with [t]'s {!sink};
    with [None] it calls [f Engine.Sink.null] — the physically equal
    value, so the engine stays on its zero-dispatch path — and does
    nothing else. *)

val charge : t -> int -> unit
(** Advance the clock by a phase-level round charge (a {!Kdom} ledger
    entry's worth of rounds that no engine run backs).  Raises
    [Invalid_argument] on a negative charge. *)

val charge_opt : t option -> int -> unit

val add_span :
  t -> ?track:int -> name:string -> start_round:int -> stop_round:int -> unit -> unit
(** Record a synthetic span with explicit clock bounds — used for phases
    that share one engine execution (the pipelined censuses of [DiamDOM],
    the fixed phase schedule of [Simple_mst_congest]) and for stages that
    run in parallel (per-fragment [FastDOM_T]), which overlap on the clock
    and are told apart by [track].  The span becomes a child of the
    innermost open span.  Raises [Invalid_argument] if
    [stop_round < start_round]. *)

val note : t -> string -> int -> unit
(** Attach a named scalar to the trace summary (fault-layer totals, frame
    counts...).  Re-noting a name overwrites it. *)

val histogram : t -> string -> (int * int) list -> unit
(** Attach a named [(value, count)] histogram to the trace — request
    latency and hop-count distributions, per-edge load ({!Serve}), or any
    other empirical distribution a protocol wants recorded.  Exported as a
    [hist] JSONL record.  Re-recording a name overwrites it; raises
    [Invalid_argument] on a negative count. *)

val budget : t -> int option
(** The widest per-message word budget any {!observe}d run declared,
    compared against the observed peak by {!Metrics}. *)

val set_shards : t -> int -> unit
(** Declare the domain count the traced execution ran under
    ({!Engine.exec_emit}'s [?domains]); defaults to 1.  Recorded in the
    [meta] line so a trace states how it was produced — execution is
    bit-identical at every domain count, so the rest of the trace does
    not depend on it.  Raises [Invalid_argument]
    if [d < 1]. *)

val shards : t -> int

(** {2 Inspection} *)

val spans : t -> span list
(** All spans, sorted by [(start_round, id)]. *)

val span_stats : t -> span -> span_stats
(** Round/message totals inside a span's clock bounds (inclusive of nested
    spans — a parent covers its children's rounds). *)

val rounds : t -> Engine.Sink.round_info list
(** Buffered round records, re-clocked to the trace's absolute round
    clock, in clock order. *)

val totals : t -> int array
(** Every {!Engine.Sink.counter} summed over all buffered round records —
    the values of the [summary] record. *)

val messages : t -> int
(** Messages observed at send time ([on_message] count). *)

val peak_words : t -> int
(** Widest single message observed. *)

val edge_peak_hist : t -> (int * int) list
(** [(peak width, number of directed edges whose peak is that width)],
    ascending — the congestion histogram to hold against the word
    budget. *)

val notes : t -> (string * int) list
(** Notes in insertion order. *)

val histograms : t -> (string * (int * int) list) list
(** Named histograms in insertion order. *)

(** {2 Export} *)

val schema_version : string
(** The JSONL schema identifier, ["kdom.trace.v1.7"].  v1.1 added the
    frontier counters ([skipped]/[woken]) to the [round], [span] and
    [summary] records; v1.2 adds the churn counter ([crashed]) to the
    same three records; v1.3 adds the executor domain count ([shards])
    to the [meta] record; v1.4 adds the dynamic-graph counters
    ([arrived]/[departed]/[inserted]) to the [round], [span] and
    [summary] records; v1.5 adds the [hist] record ({!histogram} —
    named [(value, count)] distributions, e.g. the serving layer's
    latency / hop-count / edge-load histograms); v1.6 re-bases the [bits]
    fields on the packed codec's measured wire lengths; v1.7 adds the
    integrity counter ([corrupted])
    to the [round], [span] and [summary] records, distinguishing frames
    rejected by the CRC guard from plain drops.  The counter fields of
    every record come from {!Engine.Sink}'s counter table: [round] records
    carry every counter, [span] and [summary] records the sums of the
    {!Engine.Sink.summed} ones, all in table order.  Any change to the
    record shapes — a counter added to the table included — bumps this
    string and the golden files. *)

val to_jsonl : t -> string
(** The versioned JSONL trace: a [meta] line, one [span] line per span
    (start-round order), one [round] line per buffered round record
    ({!Engine.Sink.round_line}: every counter present, always — the schema
    is homogeneous by construction), [note] lines, [hist] lines, and a
    final [summary] line.  All values are integers, so output is
    bit-deterministic. *)

val export_jsonl : t -> out_channel -> unit

val to_chrome : t -> string
(** Chrome trace-event JSON (one [X] complete event per span, [ts]/[dur]
    in rounds as microseconds, plus a [delivered] counter track) —
    loadable in Perfetto. *)

val export_chrome : t -> out_channel -> unit

(** {2 Validation} *)

val validate_line : ?first:bool -> string -> (unit, string) result
(** Structural check of one JSONL line against the schema: known [type],
    every required field present with a value of the right shape.  With
    [first] the line must be the [meta] header declaring
    {!schema_version}. *)

val validate_lines : string list -> (int, string) result
(** Validate a whole trace: first line [meta], last line [summary], every
    line well-formed.  [Ok n] is the number of lines checked; [Error]
    carries ["line N: reason"]. *)

val validate_channel : in_channel -> (int, string) result
