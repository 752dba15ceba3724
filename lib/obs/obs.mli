(** The observability facade the SOCET engines instrument against.

    Design: zero cost when disabled.  Every recording entry point first
    checks one mutable boolean; until {!configure} is called, [incr],
    [observe], [time] and [with_span] reduce to that single branch (and
    [with_span f] is exactly [f ()]).  Metric cells are created eagerly at
    engine-module-init time via {!counter}/{!gauge}/{!histogram} so hot
    paths never pay a name lookup.

    Typical use, engine side:
    {[
      let c_backtracks = Obs.counter ~scope:"atpg" "podem.backtracks"
      let () = ... Obs.incr c_backtracks ...
      let run nl = Obs.with_span ~cat:"atpg" "podem.run" (fun () -> ...)
    ]}

    and harness side:
    {[
      Obs.configure ~trace:true ();
      ...run engines...;
      print_string (Obs.stats_table ());
      Obs.write_trace "trace.json"
    ]} *)

(** {1 Lifecycle} *)

val configure : ?trace:bool -> ?trace_limit:int -> ?stream:string -> unit -> unit
(** Turn recording on.  With [trace] (default false) completed spans are
    buffered in memory (bounded by [trace_limit], default 200k events) for
    {!trace_json}/{!write_trace}; without it the no-op sink is kept and
    only registry metrics (counters, timers, histograms) accumulate.
    With [stream] (overrides [trace]) completed spans are appended to the
    named file as JSON lines through {!Sink.file} — unbounded run length,
    bounded memory; remember to {!flush} at the end of the run. *)

val flush : unit -> unit
(** Flush the active sink's pending output (a no-op for the in-memory and
    no-op sinks).  Call before reading a [?stream] file. *)

val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Zero all metrics, clear buffered trace events and the span stack.
    Engine-held metric handles stay valid. *)

(** {1 Metrics} *)

type counter = Metric.counter
type gauge = Metric.gauge
type histogram = Histogram.t
type timer = Metric.timer

val counter : ?scope:string -> string -> counter
(** Registered as ["<scope>.<name>"]; idempotent per full name. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val gauge : ?scope:string -> string -> gauge
val set_gauge : gauge -> int -> unit
val max_gauge : gauge -> int -> unit

val histogram : ?scope:string -> string -> histogram
val observe : histogram -> float -> unit

val timer : ?scope:string -> string -> timer
val time : timer -> (unit -> 'a) -> 'a
(** Runs the thunk, accumulating wall time when enabled. *)

(** {1 Spans} *)

val with_span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** Hierarchical wall-time span around the thunk.  Nested calls record
    their depth; each completed span feeds the trace sink and a registry
    timer named ["<cat>.<name>"].  Exceptions propagate; the span still
    closes. *)

(** {1 Introspection and export} *)

val span_events : unit -> Sink.span_event list
val snapshot_counters : unit -> (string * int) list
val snapshot_gauges : unit -> (string * int) list

val snapshot_timers : unit -> (string * (int * float)) list
(** [(name, (calls, total_us))], sorted by name. *)

val snapshot_histograms : unit -> (string * Histogram.summary) list

val stats_table : unit -> string
val stats_json : unit -> string
val trace_json : unit -> string

val write_trace : string -> unit
(** Write {!trace_json} to a file. *)
