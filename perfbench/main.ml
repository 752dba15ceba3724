(* The SOCET benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   runs workload W (paper_mix, fleet_cold or serve_warm) on inputs made
   from seed N, checks every output, and prints as its last stdout line
   one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 a second,
   staged run adds the per-layer ones (README.md lists both).  The
   measured work runs in child processes of this one (Phase); the
   environment (domain count, nproc, OCaml version, commit), the tail
   percentile and the layer self-time table go to stderr and to
   .perfbench/record-*.json.

     main.exe --record

   prints the expected-output table (perfbench/expected.txt) for the
   current code. *)

module Json = Socet_obs.Json
module Stats = Perfbench_stats.Stats

let workloads = [ "paper_mix"; "fleet_cold"; "serve_warm" ]

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

let args = Array.to_list Sys.argv |> List.tl

let rec flag name = function
  | k :: v :: _ when k = name -> Some v
  | _ :: rest -> flag name rest
  | [] -> None

let int_flag name ~default =
  match flag name args with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer, got %S" name v)

let bench_dir = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Child phases                                                        *)
(* ------------------------------------------------------------------ *)

type phase = {
  setup_s : float list;
  lat_ms : float list;
  pass_max_ms : float list;  (** each pass's slowest job *)
  attempted : int;
  failed : int;
  errors : string list;
  tat : float list;
  area : float list;
  cov : float list;
  wall_s : float;
  cpu_s : float;
  rss_mb : float;
  traced_jobs_per_s : float;
  traced_wall_ms : float;
  other_ms : float;
  layers : (string * float) list;
  layer_table : (string * (float * float)) list;
}

let phase_of_json j =
  let get k = match Json.member k j with Some v -> v | None -> die "phase result lacks %s" k in
  let num k = Option.get (Json.to_float (get k)) in
  let nums k = List.map (fun v -> Option.get (Json.to_float v)) (Option.get (Json.to_list (get k))) in
  let obj k = match get k with Json.Obj kv -> kv | _ -> die "phase result: %s is not an object" k in
  {
    setup_s = nums "setup_s";
    lat_ms = nums "lat_ms";
    pass_max_ms = [ List.fold_left Float.max 0.0 (nums "lat_ms") ];
    attempted = int_of_float (num "attempted");
    failed = int_of_float (num "failed");
    errors = List.filter_map Json.to_str (Option.get (Json.to_list (get "errors")));
    tat = nums "tat";
    area = nums "area";
    cov = nums "cov";
    wall_s = num "wall_s";
    cpu_s = num "cpu_s";
    rss_mb = num "rss_mb";
    traced_jobs_per_s = num "traced_jobs_per_s";
    traced_wall_ms = num "traced_wall_ms";
    other_ms = num "other_ms";
    layers = List.map (fun (k, v) -> (k, Option.get (Json.to_float v))) (obj "layers");
    layer_table =
      List.map
        (fun (k, v) ->
          match Json.to_list v with
          | Some [ ms; n ] -> (k, (Option.get (Json.to_float ms), Option.get (Json.to_float n)))
          | _ -> die "phase result: bad layer row %s" k)
        (obj "layer_table");
  }

(* Run one phase in a fresh process of this executable and read back its
   result line; a phase that crashes ends the benchmark without a
   result. *)
let run_phase ~workload ~seed ~seconds ~staged ~pass ~dir ~trace_file =
  mkdir_p dir;
  let argv =
    [|
      Sys.executable_name; "--phase"; workload; "--seed"; string_of_int seed; "--seconds";
      string_of_int seconds; "--staged"; (if staged then "1" else "0"); "--pass"; string_of_int pass;
      "--dir"; dir; "--trace-file"; trace_file;
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process Sys.executable_name argv devnull wr Unix.stderr in
  Unix.close wr;
  Unix.close devnull;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> die "%s phase exited with code %d" workload n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> die "%s phase killed by signal %d" workload n);
  let last = List.fold_left (fun a l -> if String.trim l = "" then a else l) "" (String.split_on_char '\n' out) in
  match Json.of_string last with
  | Ok j -> phase_of_json j
  | Error e -> die "%s phase printed no result (%s)" workload e

let merge a b =
  {
    setup_s = a.setup_s @ b.setup_s;
    lat_ms = a.lat_ms @ b.lat_ms;
    pass_max_ms = a.pass_max_ms @ b.pass_max_ms;
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    errors = a.errors @ b.errors;
    tat = a.tat @ b.tat;
    area = a.area @ b.area;
    cov = a.cov @ b.cov;
    wall_s = a.wall_s +. b.wall_s;
    cpu_s = a.cpu_s +. b.cpu_s;
    rss_mb = Float.max a.rss_mb b.rss_mb;
    traced_jobs_per_s = 0.0;
    traced_wall_ms = 0.0;
    other_ms = 0.0;
    layers = [];
    layer_table = [];
  }

(* paper_mix and fleet_cold are fixed work: a run makes whole passes over
   the mix or the fleet, each in a fresh process and in its own seeded
   order.  The pass count follows from [seconds] and a nominal pass
   length, never from how fast the passes went, so every run of a
   workload does the same work. *)
let nominal_pass_s = function "paper_mix" -> 16 | _ -> 10
let passes ~workload ~seconds = max 1 (seconds / nominal_pass_s workload)
let fixed_work workload = workload <> "serve_warm"

(* The untraced measurement: the passes of a fixed-work workload, or one
   serve_warm phase of [seconds]. *)
let untraced ~workload ~seed ~seconds ~dir ~trace_file =
  let phase pass = run_phase ~workload ~seed ~seconds ~staged:false ~pass ~dir:(Printf.sprintf "%s/p%d" dir pass) ~trace_file in
  if not (fixed_work workload) then phase 0
  else List.fold_left (fun acc pass -> merge acc (phase pass)) (phase 0) (List.init (passes ~workload ~seconds - 1) succ)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let mean = function [] -> 0.0 | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* The latency tail: the highest ladder percentile with at least ten
   samples beyond it.  A paper_mix run has fifteen jobs, too few for any: its
   tail is then the slowest job of a pass, the median over the passes,
   recorded as p100 with no sample beyond, so the metric is never missing
   and never p50. *)
let latency_tail p =
  match Stats.tail p.lat_ms with
  | Some t -> t
  | None -> { Stats.t_pct = 100.0; t_value = Stats.median p.pass_max_ms; t_beyond = 0 }

let end_to_end p =
  let jobs = float_of_int (List.length p.lat_ms) in
  let tail = latency_tail p in
  ( [
      ("setup_s", Stats.median p.setup_s, "s");
      ("jobs_per_s", jobs /. p.wall_s, "1/s");
      ("latency_p50_ms", Stats.median p.lat_ms, "ms");
      ("latency_tail_ms", tail.Stats.t_value, "ms");
      ("cpu_ms_per_job", p.cpu_s *. 1000.0 /. jobs, "ms");
      ("peak_rss_mb", p.rss_mb, "MiB");
      ("tat_cycles_mean", mean p.tat, "cycles");
      ("dft_area_cells_mean", mean p.area, "cells");
      ("fault_coverage_pct_mean", mean p.cov, "%");
    ],
    tail )

let layer_unit name =
  if List.exists (fun suffix -> String.ends_with ~suffix name) [ "_frac"; "_per_decision"; "_per_netlist" ] then "frac"
  else if String.ends_with ~suffix:"_ms" name then "ms/job"
  else if name = "cache.bytes_written" then "B/job"
  else "count/job"

(* ------------------------------------------------------------------ *)
(* Environment record                                                  *)
(* ------------------------------------------------------------------ *)

let read_opt path = try Some (String.trim (In_channel.with_open_bin path In_channel.input_all)) with Sys_error _ -> None

(* The checked-out commit when there is a .git, and always a digest of
   the sources the benchmark builds (lib/, bin/ and perfbench/). *)
let commit () =
  match read_opt ".git/HEAD" with
  | Some h when String.starts_with ~prefix:"ref: " h ->
      Option.value ~default:h (read_opt (Filename.concat ".git" (String.sub h 5 (String.length h - 5))))
  | Some h -> h
  | None -> "none"

let source_digest () =
  let rec files d =
    match Sys.readdir d with
    | names ->
        Array.sort compare names;
        Array.to_list names
        |> List.concat_map (fun n ->
               let p = Filename.concat d n in
               if Sys.is_directory p then files p
               else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" || Filename.basename p = "dune" then [ p ]
               else [])
    | exception Sys_error _ -> []
  in
  let b = Buffer.create 65536 in
  List.iter
    (fun p ->
      Buffer.add_string b p;
      Buffer.add_string b (In_channel.with_open_bin p In_channel.input_all))
    (List.concat_map files [ "lib"; "bin"; "perfbench" ]);
  Digest.to_hex (Digest.string (Buffer.contents b))

let environment () =
  [
    ("domains", Json.Num 1.0);
    ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", Json.Str Sys.ocaml_version);
    ("commit", Json.Str (commit ()));
    ("source_digest", Json.Str (source_digest ()));
  ]

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let record () =
  Socet_util.Pool.set_size 1;
  List.iter
    (fun r ->
      let o =
        match Socet_serve.Dispatch.run r.Mix.req with
        | Ok o -> { Mix.stdout = o.Socet_serve.Dispatch.o_stdout; stderr = o.o_stderr; code = o.o_code }
        | Error e -> die "%s failed: %s" r.Mix.label (Socet_util.Error.to_string e)
      in
      print_endline (Mix.expected_line r.Mix.label o))
    Mix.requests

let bench () =
  let workload = match flag "--workload" args with Some w -> w | None -> die "--workload is required" in
  if not (List.mem workload workloads) then die "unknown workload %S (use %s)" workload (String.concat ", " workloads);
  let seed = int_flag "--seed" ~default:1 in
  let seconds = int_flag "--seconds" ~default:50 in
  let trace = int_flag "--trace" ~default:0 in
  if seed < 0 then die "--seed must be >= 0";
  if seconds < 1 then die "--seconds must be >= 1";
  if trace <> 0 && trace <> 1 then die "--trace must be 0 or 1";
  if not (Sys.file_exists Mix.expected_path) then die "%s is missing (run from the repository root)" Mix.expected_path;
  mkdir_p bench_dir;
  let tag = Printf.sprintf "%s-seed%d-trace%d" workload seed trace in
  let dir = Printf.sprintf "%s/run-%d" bench_dir (Unix.getpid ()) in
  let trace_file = Printf.sprintf "%s/trace-%s.json" bench_dir tag in
  let base = untraced ~workload ~seed ~seconds ~dir:(dir ^ "/untraced") ~trace_file in
  let staged =
    if trace = 1 then Some (run_phase ~workload ~seed ~seconds ~staged:true ~pass:0 ~dir:(dir ^ "/staged") ~trace_file)
    else None
  in
  rm_rf dir;
  let e2e, tail = end_to_end base in
  let attempted = base.attempted + Option.fold ~none:0 ~some:(fun s -> s.attempted) staged in
  let failed = base.failed + Option.fold ~none:0 ~some:(fun s -> s.failed) staged in
  let problems = ref (base.errors @ Option.fold ~none:[] ~some:(fun s -> s.errors) staged) in
  let metrics =
    match staged with
    | None -> e2e
    | Some s ->
        let layer_sum = List.fold_left (fun a (_, (ms, _)) -> a +. ms) 0.0 s.layer_table in
        if Float.abs (layer_sum +. s.other_ms -. s.traced_wall_ms) > 1e-6 *. s.traced_wall_ms +. 1e-3 then
          problems :=
            Printf.sprintf "layer self times (%.3f ms) + bench.other (%.3f ms) != traced wall (%.3f ms)" layer_sum
              s.other_ms s.traced_wall_ms
            :: !problems;
        let untraced_jps = float_of_int (List.length base.lat_ms) /. base.wall_s in
        List.map (fun (k, v) -> (k, v, layer_unit k)) s.layers
        @ [
            ("obs.trace_overhead_frac", 1.0 -. (s.traced_jobs_per_s /. untraced_jps), "frac");
            ("failed_frac", Stats.failed_frac ~attempted ~failed, "frac");
          ]
  in
  let correct = failed = 0 && !problems = [] && attempted >= 1 in
  (* Human-readable report on stderr. *)
  let env = environment () in
  Printf.eprintf "perfbench %s: %s\n" tag
    (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string v) env));
  List.iter (fun (k, v, u) -> Printf.eprintf "  %-30s %14.4f %s\n" k v u) e2e;
  Printf.eprintf "  latency tail: p%g, %d sample(s) beyond, %d jobs\n" tail.Stats.t_pct tail.Stats.t_beyond
    (List.length base.lat_ms);
  Option.iter
    (fun s ->
      Printf.eprintf "  layer self times (traced wall %.1f ms):\n" s.traced_wall_ms;
      List.iter
        (fun (k, (ms, n)) -> Printf.eprintf "    %-24s %12.1f ms %8.0f calls %6.1f%%\n" k ms n (100.0 *. ms /. s.traced_wall_ms))
        s.layer_table;
      Printf.eprintf "    %-24s %12.1f ms %6.1f%%\n" "bench.other" s.other_ms (100.0 *. s.other_ms /. s.traced_wall_ms);
      List.iter (fun (k, v, u) -> Printf.eprintf "  %-30s %14.4f %s\n" k v u) metrics)
    staged;
  List.iter (fun p -> Printf.eprintf "  FAILED: %s\n" p) !problems;
  let num_metrics l = Json.Obj (List.map (fun (k, v, u) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ])) l) in
  let record =
    Json.Obj
      [
        ("workload", Json.Str workload);
        ("seed", Json.Num (float_of_int seed));
        ("seconds", Json.Num (float_of_int seconds));
        ("environment", Json.Obj env);
        ("jobs", Json.Num (float_of_int (List.length base.lat_ms)));
        ("passes", Json.Num (float_of_int (if fixed_work workload then passes ~workload ~seconds else 1)));
        ( "latency_tail",
          Json.Obj [ ("percentile", Json.Num tail.Stats.t_pct); ("samples_beyond", Json.Num (float_of_int tail.Stats.t_beyond)) ] );
        ("end_to_end", num_metrics e2e);
        ("metrics", num_metrics metrics);
        ("problems", Json.Arr (List.map (fun p -> Json.Str p) !problems));
      ]
  in
  Out_channel.with_open_bin (Printf.sprintf "%s/record-%s.json" bench_dir tag) (fun oc ->
      output_string oc (Json.to_string ~pretty:true record));
  (* Numbers keep all their digits: %.17g round-trips a float. *)
  let metric_json (k, v, u) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" k (if Float.is_finite v then v else 0.0) u
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct attempted failed
    (String.concat ", " (List.map metric_json metrics))

let () =
  (* A serve worker is this executable re-exec'd by the supervisor. *)
  Socet_serve.Worker.exec_guard ();
  if List.mem "--record" args then record ()
  else
    match flag "--phase" args with
    | Some workload ->
        let cfg =
          {
            Phase.workload;
            seed = int_flag "--seed" ~default:1;
            seconds = float_of_int (int_flag "--seconds" ~default:50);
            staged = int_flag "--staged" ~default:0 = 1;
            pass = int_flag "--pass" ~default:0;
            dir = Option.get (flag "--dir" args);
          }
        in
        Phase.run cfg ~trace_file:(Option.get (flag "--trace-file" args))
    | None -> bench ()
