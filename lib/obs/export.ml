module Ascii_table = Socet_util.Ascii_table

let partition registry =
  List.fold_left
    (fun (cs, gs, ts, hs) (name, entry) ->
      match entry with
      | Registry.Counter c -> ((name, Metric.value c) :: cs, gs, ts, hs)
      | Registry.Gauge g -> (cs, (name, Metric.value g) :: gs, ts, hs)
      | Registry.Timer tm -> (cs, gs, (name, tm) :: ts, hs)
      | Registry.Histogram h -> (cs, gs, ts, (name, h) :: hs))
    ([], [], [], [])
    (List.rev (Registry.entries registry))

let ms us = us /. 1000.0

let stats_table registry =
  let counters, gauges, timers, histograms = partition registry in
  let buf = Buffer.create 1024 in
  let scalar_rows =
    List.map (fun (n, v) -> [ n; "counter"; string_of_int v ]) counters
    @ List.map (fun (n, v) -> [ n; "gauge"; string_of_int v ]) gauges
  in
  if scalar_rows <> [] then
    Buffer.add_string buf
      (Ascii_table.render ~header:[ "metric"; "kind"; "value" ] scalar_rows);
  let timer_rows =
    List.filter_map
      (fun (n, (tm : Metric.timer)) ->
        let count = Metric.timer_count tm in
        let total_us = Metric.timer_total_us tm in
        if count = 0 then None
        else
          Some
            [
              n;
              string_of_int count;
              Printf.sprintf "%.3f" (ms total_us);
              Printf.sprintf "%.1f" (total_us /. float_of_int count);
            ])
      timers
  in
  if timer_rows <> [] then
    Buffer.add_string buf
      (Ascii_table.render
         ~header:[ "timer (span)"; "calls"; "total ms"; "mean us" ]
         timer_rows);
  let histogram_rows =
    List.filter_map
      (fun (n, h) ->
        if Histogram.count h = 0 then None
        else
          let s = Histogram.summarize h in
          let f = Printf.sprintf "%.1f" in
          Some
            [
              n;
              string_of_int s.Histogram.s_count;
              f s.Histogram.s_min;
              f s.Histogram.s_p50;
              f s.Histogram.s_p90;
              f s.Histogram.s_p99;
              f s.Histogram.s_max;
            ])
      histograms
  in
  if histogram_rows <> [] then
    Buffer.add_string buf
      (Ascii_table.render
         ~header:[ "histogram"; "count"; "min"; "p50"; "p90"; "p99"; "max" ]
         histogram_rows);
  if Buffer.length buf = 0 then "(no metrics recorded)\n" else Buffer.contents buf

let stats_json registry =
  let counters, gauges, timers, histograms = partition registry in
  let num_i v = Json.Num (float_of_int v) in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, num_i v)) counters));
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, num_i v)) gauges));
      ( "timers",
        Json.Obj
          (List.map
             (fun (n, (tm : Metric.timer)) ->
               ( n,
                 Json.Obj
                   [
                     ("count", num_i (Metric.timer_count tm));
                     ("total_ms", Json.Num (ms (Metric.timer_total_us tm)));
                   ] ))
             timers) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (n, h) ->
               let s = Histogram.summarize h in
               ( n,
                 Json.Obj
                   [
                     ("count", num_i s.Histogram.s_count);
                     ("min", Json.Num s.Histogram.s_min);
                     ("mean", Json.Num s.Histogram.s_mean);
                     ("p50", Json.Num s.Histogram.s_p50);
                     ("p90", Json.Num s.Histogram.s_p90);
                     ("p99", Json.Num s.Histogram.s_p99);
                     ("max", Json.Num s.Histogram.s_max);
                   ] ))
             histograms) );
    ]

let trace_json ?(dropped = 0) events =
  let event (ev : Sink.span_event) =
    Json.Obj
      [
        ("name", Json.Str ev.Sink.ev_name);
        ("cat", Json.Str (if ev.Sink.ev_cat = "" then "app" else ev.Sink.ev_cat));
        ("ph", Json.Str "X");
        ("ts", Json.Num ev.Sink.ev_start_us);
        ("dur", Json.Num ev.Sink.ev_dur_us);
        ("pid", Json.Num 1.0);
        ("tid", Json.Num 1.0);
        ("args", Json.Obj [ ("depth", Json.Num (float_of_int ev.Sink.ev_depth)) ]);
      ]
  in
  Json.Obj
    ([
       ("traceEvents", Json.Arr (List.map event events));
       ("displayTimeUnit", Json.Str "ms");
     ]
    @ if dropped > 0 then [ ("droppedEvents", Json.Num (float_of_int dropped)) ] else [])
