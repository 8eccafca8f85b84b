(** Aggregated metrics over a {!Trace}: the in-process view the tests use
    to assert the paper's bounds against live executions (SimpleMST phase
    lengths, DiamDOM's [5*Diam + k], the per-message word budget). *)

type span_report = {
  r_name : string;
  r_count : int;        (** spans carrying this name *)
  r_rounds : int;       (** total rounds across them *)
  r_max_rounds : int;   (** longest single span *)
  r_counts : int array;
      (** every {!Engine.Sink.counter} summed over the spans' round
          records ({!Trace.span_stats}), e.g.
          [r_counts.(Engine.Sink.delivered)] *)
}

type t = {
  rounds : int;         (** final value of the trace's round clock *)
  messages : int;       (** messages observed at send time *)
  delivered : int;      (** [totals.(Engine.Sink.delivered)] *)
  bits : int;
      (** [totals.(Engine.Sink.bits)]: measured wire bits delivered — the
          honest O(log n)-bit cost of the run as encoded by {!Codec}, not
          the declared word budget *)
  peak_words : int;     (** widest single message *)
  budget : int option;  (** declared word budget, if any *)
  totals : int array;
      (** every {!Engine.Sink.counter} summed over the whole trace
          ({!Trace.totals}) — [totals.(Engine.Sink.corrupted)] is the
          frames the integrity guard rejected, and so on *)
  edge_peaks : (int * int) list;
      (** congestion histogram: [(peak width, edges at that peak)] *)
  span_reports : span_report list;
      (** one per distinct span name, in first-appearance order *)
  notes : (string * int) list;
  hists : (string * (int * int) list) list;
      (** named [(value, count)] histograms ({!Trace.histogram}) — e.g.
          the serving layer's latency / hop / edge-load distributions *)
}

val report : Trace.t -> t

val within_budget : t -> bool
(** No observed message wider than the declared budget; vacuously true
    when no budget was declared. *)

val find : t -> string -> span_report option
(** Exact-name lookup, e.g. [find r "diam_dom.census[3]"]. *)

val matching : t -> prefix:string -> span_report list
(** Reports whose name starts with [prefix] — [matching r
    ~prefix:"simple_mst.phase"] collects every phase. *)

val span_index : string -> int option
(** The bracketed index of an indexed span name:
    [span_index "simple_mst.phase[4]" = Some 4]. *)

val pp : Format.formatter -> t -> unit
(** Human-readable summary table. *)
