type state = { mutable on : bool; mutable sink : Sink.t }

let st = { on = false; sink = Sink.noop }
let registry = Registry.create ()

let configure ?(trace = false) ?trace_limit ?stream () =
  st.sink <-
    (match stream with
    | Some path -> Sink.file path
    | None -> if trace then Sink.memory ?limit:trace_limit () else Sink.noop);
  st.on <- true;
  Clock.reset ()

let flush () = st.sink.Sink.flush ()

let disable () = st.on <- false
let enabled () = st.on

let reset () =
  Registry.reset registry;
  st.sink.Sink.clear ();
  Span.reset ()

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type counter = Metric.counter
type gauge = Metric.gauge
type histogram = Histogram.t
type timer = Metric.timer

let scoped scope name = if scope = "" then name else scope ^ "." ^ name

let counter ?(scope = "") name = Registry.counter registry (scoped scope name)
let incr c = if st.on then Metric.incr c
let add c n = if st.on then Metric.add c n
let value = Metric.value

let gauge ?(scope = "") name = Registry.gauge registry (scoped scope name)
let set_gauge g v = if st.on then Metric.set g v
let max_gauge g v = if st.on then Metric.set_max g v

let histogram ?(scope = "") name = Registry.histogram registry (scoped scope name)
let observe h v = if st.on then Histogram.observe h v

let timer ?(scope = "") name = Registry.timer registry (scoped scope name)

let time tm f =
  if not st.on then f ()
  else begin
    let t0 = Clock.now_us () in
    Fun.protect ~finally:(fun () -> Metric.timer_add tm (Clock.now_us () -. t0)) f
  end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let with_span ?(cat = "app") name f =
  if not st.on then f ()
  else begin
    Span.enter ~name ~cat;
    Fun.protect ~finally:(fun () -> Span.leave ~sink:st.sink ~registry) f
  end

(* ------------------------------------------------------------------ *)
(* Introspection and export                                            *)
(* ------------------------------------------------------------------ *)

let span_events () = st.sink.Sink.events ()

let snapshot_counters () =
  List.filter_map
    (function n, Registry.Counter c -> Some (n, Metric.value c) | _ -> None)
    (Registry.entries registry)

let snapshot_gauges () =
  List.filter_map
    (function n, Registry.Gauge g -> Some (n, Metric.value g) | _ -> None)
    (Registry.entries registry)

let snapshot_timers () =
  List.filter_map
    (function
      | n, Registry.Timer tm ->
          Some (n, (Metric.timer_count tm, Metric.timer_total_us tm))
      | _ -> None)
    (Registry.entries registry)

let snapshot_histograms () =
  List.filter_map
    (function
      | n, Registry.Histogram h -> Some (n, Histogram.summarize h) | _ -> None)
    (Registry.entries registry)

let stats_table () = Export.stats_table registry
let stats_json () = Json.to_string ~pretty:true (Export.stats_json registry)

let trace_json () =
  Json.to_string
    (Export.trace_json ~dropped:(st.sink.Sink.dropped ()) (span_events ()))

let write_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (trace_json ());
      output_char oc '\n')
