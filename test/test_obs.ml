(* Tests for the lib/obs observability subsystem: metric accumulation,
   span nesting, the JSON writer/parser pair, the Chrome trace export,
   and (as a qcheck property) the histogram quantile invariants. *)

open Socet_obs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* The parser returns results and the accessors options; tests want the
   happy path, so failures become test failures. *)
let parse s =
  match Json.of_string s with
  | Ok t -> t
  | Error e -> Alcotest.failf "JSON parse error: %s" e

let member k t =
  match Json.member k t with
  | Some v -> v
  | None -> Alcotest.failf "missing JSON member %S" k

let to_list t = Option.get (Json.to_list t)
let to_float t = Option.get (Json.to_float t)
let to_str t = Option.get (Json.to_str t)

(* Every test starts from a clean, enabled registry.  Metric handles are
   created inside the tests (the registry is global, so names are
   namespaced per test to stay independent of registration order). *)
let fresh ?(trace = false) () =
  Obs.configure ~trace ();
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* Counters, gauges, timers                                            *)
(* ------------------------------------------------------------------ *)

let test_counter_accumulation () =
  fresh ();
  let c = Obs.counter ~scope:"test" "counter.basic" in
  check_int "starts at zero" 0 (Obs.value c);
  Obs.incr c;
  Obs.incr c;
  Obs.add c 40;
  check_int "2 incr + add 40" 42 (Obs.value c);
  let again = Obs.counter ~scope:"test" "counter.basic" in
  Obs.incr again;
  check_int "same name is same cell" 43 (Obs.value c)

let test_counter_disabled_is_silent () =
  fresh ();
  let c = Obs.counter ~scope:"test" "counter.gated" in
  Obs.disable ();
  Obs.incr c;
  Obs.add c 10;
  check_int "no recording while disabled" 0 (Obs.value c);
  Obs.configure ();
  Obs.incr c;
  check_int "recording after re-enable" 1 (Obs.value c)

let test_gauge_max () =
  fresh ();
  let g = Obs.gauge ~scope:"test" "gauge.peak" in
  Obs.max_gauge g 5;
  Obs.max_gauge g 3;
  Obs.max_gauge g 9;
  Obs.max_gauge g 7;
  let v = List.assoc "test.gauge.peak" (Obs.snapshot_gauges ()) in
  check_int "max_gauge keeps the peak" 9 v

let test_timer_accumulation () =
  fresh ();
  let t = Obs.timer ~scope:"test" "timer.basic" in
  let r = Obs.time t (fun () -> 7 * 6) in
  check_int "thunk result returned" 42 r;
  ignore (Obs.time t (fun () -> Sys.opaque_identity (List.init 100 Fun.id)));
  let calls, total_us = List.assoc "test.timer.basic" (Obs.snapshot_timers ()) in
  check_int "two timed calls" 2 calls;
  check "non-negative total" true (total_us >= 0.0)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  fresh ~trace:true ();
  let r =
    Obs.with_span ~cat:"test" "outer" @@ fun () ->
    Obs.with_span ~cat:"test" "inner" (fun () -> ());
    Obs.with_span ~cat:"test" "inner" (fun () -> ());
    17
  in
  check_int "with_span returns thunk result" 17 r;
  let events = Obs.span_events () in
  check_int "three completed spans" 3 (List.length events);
  let outer = List.find (fun e -> e.Sink.ev_name = "outer") events in
  let inners = List.filter (fun e -> e.Sink.ev_name = "inner") events in
  check_int "outer at depth 0" 0 outer.Sink.ev_depth;
  List.iter
    (fun e ->
      check_int "inner at depth 1" 1 e.Sink.ev_depth;
      check "inner within outer (start)" true
        (e.Sink.ev_start_us >= outer.Sink.ev_start_us);
      check "inner within outer (end)" true
        (e.Sink.ev_start_us +. e.Sink.ev_dur_us
        <= outer.Sink.ev_start_us +. outer.Sink.ev_dur_us +. 1.0))
    inners;
  (* Each completed span also feeds a registry timer named cat.name. *)
  let calls, _ = List.assoc "test.inner" (Obs.snapshot_timers ()) in
  check_int "span timer counts both inner calls" 2 calls

let test_span_survives_exception () =
  fresh ~trace:true ();
  (try
     Obs.with_span ~cat:"test" "raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  let events = Obs.span_events () in
  check_int "span closed despite exception" 1 (List.length events);
  check_int "stack unwound" 0 (Span.depth ())

let test_span_disabled_is_free () =
  fresh ();
  Obs.disable ();
  let r = Obs.with_span "off" (fun () -> 5) in
  check_int "disabled with_span is the thunk" 5 r;
  check_int "no events recorded" 0 (List.length (Obs.span_events ()))

(* ------------------------------------------------------------------ *)
(* JSON writer / parser                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a \"quoted\" \\ line\nnext");
        ("n", Json.Num 42.0);
        ("f", Json.Num 1.5);
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("a", Json.Arr [ Json.Num 1.0; Json.Str "x"; Json.Arr [] ]);
        ("o", Json.Obj [ ("k", Json.Bool false) ]);
      ]
  in
  let parsed = parse (Json.to_string doc) in
  check "compact roundtrip" true (parsed = doc);
  let parsed = parse (Json.to_string ~pretty:true doc) in
  check "pretty roundtrip" true (parsed = doc);
  check_str "integer floats print as integers" "42"
    (Json.to_string (Json.Num 42.0))

let test_json_parser_rejects_garbage () =
  List.iter
    (fun s ->
      check ("rejects " ^ s) true
        (match Json.of_string s with Error _ -> true | Ok _ -> false))
    [ ""; "{"; "[1,"; "{\"a\":}"; "truex"; "1 2"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let test_trace_json_well_formed () =
  fresh ~trace:true ();
  Obs.with_span ~cat:"enginea" "phase.one" (fun () ->
      Obs.with_span ~cat:"enginea" "phase.two" (fun () -> ()));
  Obs.with_span ~cat:"engineb" "other.phase" (fun () -> ());
  let doc = parse (Obs.trace_json ()) in
  let events = to_list (member "traceEvents" doc) in
  check_int "one event per span" 3 (List.length events);
  List.iter
    (fun e ->
      check_str "complete events" "X" (to_str (member "ph" e));
      check "has a name" true (to_str (member "name" e) <> "");
      check "non-negative ts" true (to_float (member "ts" e) >= 0.0);
      check "non-negative dur" true (to_float (member "dur" e) >= 0.0))
    events;
  let cats =
    List.sort_uniq compare
      (List.map (fun e -> to_str (member "cat" e)) events)
  in
  check "both categories exported" true (cats = [ "enginea"; "engineb" ])

let test_stats_json_well_formed () =
  fresh ();
  let c = Obs.counter ~scope:"test" "stats.count" in
  let h = Obs.histogram ~scope:"test" "stats.hist" in
  Obs.add c 3;
  List.iter (Obs.observe h) [ 1.0; 2.0; 3.0 ];
  Obs.with_span ~cat:"test" "stats.sleep" (fun () -> Unix.sleepf 0.02);
  let doc = parse (Obs.stats_json ()) in
  let counters = member "counters" doc in
  check "counter exported" true
    (to_float (member "test.stats.count" counters) = 3.0);
  let hist = member "test.stats.hist" (member "histograms" doc) in
  check "histogram count exported" true (to_float (member "count" hist) = 3.0);
  (* Timers export milliseconds: a ~20 ms span lands well inside
     [15, 1000] whatever the scheduler does, and far from the 20000 a
     microsecond total would show. *)
  let timer = member "test.stats.sleep" (member "timers" doc) in
  check "timer count exported" true (to_float (member "count" timer) = 1.0);
  let total_ms = to_float (member "total_ms" timer) in
  check
    (Printf.sprintf "timer total_ms %.3f within [15, 1000]" total_ms)
    true
    (total_ms >= 15.0 && total_ms <= 1000.0)

let test_file_sink_streams_jsonl () =
  let path = Filename.temp_file "socet-obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.configure ~stream:path ();
      Obs.reset ();
      Obs.with_span ~cat:"enginea" "stream.one" (fun () ->
          Obs.with_span ~cat:"enginea" "stream.two" (fun () -> ()));
      Obs.with_span ~cat:"engineb" "stream.three" (fun () -> ());
      check_int "streaming sink retains nothing in memory" 0
        (List.length (Obs.span_events ()));
      Obs.flush ();
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check_int "one JSONL line per span" 3 (List.length lines);
      List.iter
        (fun line ->
          let e = parse line in
          check "has a name" true (to_str (member "name" e) <> "");
          check "has a category" true (to_str (member "cat" e) <> "");
          check "non-negative duration" true (to_float (member "dur_us" e) >= 0.0))
        lines;
      (* Appending across a reconfigure keeps the file valid JSONL. *)
      Obs.configure ~stream:path ();
      Obs.with_span ~cat:"enginea" "stream.four" (fun () -> ());
      Obs.flush ();
      let ic = open_in path in
      let n = ref 0 in
      (try
         while true do
           ignore (parse (input_line ic));
           incr n
         done
       with End_of_file -> close_in ic);
      check_int "appended line parses too" 4 !n);
  fresh ()

let test_stats_table_renders () =
  fresh ();
  let c = Obs.counter ~scope:"test" "table.count" in
  Obs.incr c;
  let s = Obs.stats_table () in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check "table mentions the metric" true (contains ~sub:"test.table.count" s)

(* ------------------------------------------------------------------ *)
(* Histogram quantile properties                                        *)
(* ------------------------------------------------------------------ *)

let prop_quantiles_monotone_and_bounded =
  QCheck.Test.make ~name:"histogram quantiles monotone, bounded by min/max"
    ~count:200
    QCheck.(list_of_size Gen.(1 -- 200) (float_bound_inclusive 1e9))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (Histogram.observe h) samples;
      let lo = List.fold_left min infinity samples in
      let hi = List.fold_left max neg_infinity samples in
      let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
      let vs = List.map (Histogram.quantile h) qs in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone vs
      && List.for_all (fun v -> v >= lo && v <= hi) vs)

let prop_histogram_count_sum_exact =
  QCheck.Test.make ~name:"histogram count/sum/min/max are exact" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_inclusive 1e6))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (Histogram.observe h) samples;
      let s = Histogram.summarize h in
      s.Histogram.s_count = List.length samples
      && abs_float (s.Histogram.s_sum -. List.fold_left ( +. ) 0.0 samples)
         <= 1e-6 *. (1.0 +. abs_float s.Histogram.s_sum)
      && s.Histogram.s_min = List.fold_left min infinity samples
      && s.Histogram.s_max = List.fold_left max neg_infinity samples)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "socet_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter accumulation" `Quick
            test_counter_accumulation;
          Alcotest.test_case "disabled is silent" `Quick
            test_counter_disabled_is_silent;
          Alcotest.test_case "gauge peak" `Quick test_gauge_max;
          Alcotest.test_case "timer accumulation" `Quick
            test_timer_accumulation;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and depths" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick
            test_span_survives_exception;
          Alcotest.test_case "disabled is free" `Quick
            test_span_disabled_is_free;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_json_parser_rejects_garbage;
        ] );
      ( "export",
        [
          Alcotest.test_case "trace json" `Quick test_trace_json_well_formed;
          Alcotest.test_case "stats json" `Quick test_stats_json_well_formed;
          Alcotest.test_case "stats table" `Quick test_stats_table_renders;
          Alcotest.test_case "file sink streams jsonl" `Quick
            test_file_sink_streams_jsonl;
        ] );
      ( "histogram",
        [
          QCheck_alcotest.to_alcotest prop_quantiles_monotone_and_bounded;
          QCheck_alcotest.to_alcotest prop_histogram_count_sum_exact;
        ] );
    ]
