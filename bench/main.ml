(* Perf smoke for the engines CI gates on: the domain-pool sweep of
   fault simulation and design-space search, the flat fault-simulation
   kernel against the legacy engine, and the persistent cache warm vs
   cold.  Each section prints its table and returns its entry of
   BENCH_socet.json, which CI asserts against.  The paper's tables are
   in bench/reproduce.ml. *)

open Socet_util
open Socet_core
open Socet_cores
module Obs = Socet_obs.Obs
module Json = Socet_obs.Json

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let soc1 = Systems.system1 ()
let soc2 = Systems.system2 ()

let int n = Json.Num (float_of_int n)
let flag b = Json.Num (if b then 1.0 else 0.0)

(* Best of three wall-clock runs of [f], in seconds, with the last
   result. *)
let time_best f =
  let best = ref infinity and last = ref None in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    last := Some (f ());
    best := min !best (Unix.gettimeofday () -. t0)
  done;
  (!best, Option.get !last)

(* The library exporter's metrics snapshot ({counters, gauges, timers,
   histograms}) as JSON fields. *)
let obs_snapshot () =
  match Json.of_string (Obs.stats_json ()) with
  | Ok (Json.Obj fields) -> fields
  | Ok _ | Error _ -> failwith "Obs.stats_json did not export a JSON object"

(* ------------------------------------------------------------------ *)
(* Parallel scaling: domain-pool sweep                                 *)
(* ------------------------------------------------------------------ *)

let parallel_section () =
  section "Parallel scaling: fault simulation and design-space search";
  (* Each engine thunk returns a digest of its full result, so the sweep
     checks the determinism contract (byte-identical at any domain
     count) on the exact workloads it times. *)
  let sweep f =
    let runs =
      List.map
        (fun d ->
          Pool.set_size d;
          let t, dg = time_best f in
          ((d, t), dg))
        [ 1; 2; 4 ]
    in
    Pool.set_size 1;
    let identical =
      match runs with
      | (_, first) :: rest -> List.for_all (fun (_, dg) -> dg = first) rest
      | [] -> true
    in
    (List.map fst runs, identical)
  in
  let cpu = Soc.inst soc1 "CPU" in
  let nl = cpu.Soc.ci_netlist in
  let faults = Socet_atpg.Fault.collapse nl in
  (* One engine call takes 0.3-5 ms, which is timer noise next to a
     domain-count difference, so each row repeats its call: the repeat
     counts make every row run for at least 50 ms at 1 domain on a
     2-vCPU host.  Each fsim call gets a fresh 64-vector set and
     simulates the full fault list, so none starts from another's
     dropped faults. *)
  let fsim_reps = 64 in
  let rng = Rng.create 4242 in
  let vec_sets =
    List.init fsim_reps (fun _ ->
        List.init 64 (fun _ -> Rng.bitvec rng (Socet_atpg.Fsim.vector_length nl)))
  in
  let digest_of v = Digest.to_hex (Digest.string (Marshal.to_string v [])) in
  let fault_sig fs =
    List.map
      (fun (f : Socet_atpg.Fault.t) ->
        (f.Socet_atpg.Fault.f_net, f.Socet_atpg.Fault.f_stuck))
      fs
  in
  let design_space reps soc =
    ( reps,
      fun () ->
        digest_of
          (List.init reps (fun _ ->
               List.map
                 (fun (p : Select.point) ->
                   ( p.Select.pt_choice,
                     p.Select.pt_area,
                     p.Select.pt_time,
                     p.Select.pt_schedule.Schedule.s_total_time ))
                 (Select.design_space soc))) )
  in
  let results =
    List.map
      (fun (name, (reps, f)) -> (name, reps, sweep f))
      [
        ( "fsim CPU (64 vec, full fault list)",
          ( fsim_reps,
            fun () ->
              digest_of
                (List.map
                   (fun vectors ->
                     fault_sig (Socet_atpg.Fsim.run_comb nl ~vectors ~faults))
                   vec_sets) ) );
        ("design space System 1", design_space 16 soc1);
        ("design space System 2", design_space 200 soc2);
      ]
  in
  let speedup_4 times = List.assoc 1 times /. List.assoc 4 times in
  Ascii_table.print
    ~header:
      [
        "engine"; "reps"; "1 dom (ms)"; "2 dom (ms)"; "4 dom (ms)"; "speedup@4";
        "identical";
      ]
    (List.map
       (fun (name, reps, (times, identical)) ->
         (name :: string_of_int reps
         :: List.map (fun (_, t) -> Printf.sprintf "%.1f" (t *. 1000.0)) times)
         @ [
             Printf.sprintf "%.2fx" (speedup_4 times);
             (if identical then "yes" else "NO");
           ])
       results);
  Printf.printf
    "(times are for all reps of a row; identical = result digests match\n\
     across 1/2/4 domains; this machine has %d hardware domains)\n"
    (Domain.recommended_domain_count ());
  ( "parallel",
    Json.Obj
      (("hw_domains", int (Domain.recommended_domain_count ()))
      :: List.map
           (fun (name, _, (times, identical)) ->
             ( name,
               Json.Obj
                 (List.map
                    (fun (d, t) ->
                      (Printf.sprintf "ms_%d_domains" d, Json.Num (t *. 1000.0)))
                    times
                 @ [
                     ("speedup_4", Json.Num (speedup_4 times));
                     ("byte_identical", flag identical);
                   ]) ))
           results) )

(* ------------------------------------------------------------------ *)
(* Fault-simulation kernel: flat vs legacy engine                      *)
(* ------------------------------------------------------------------ *)

let fsim_kernel_section () =
  section "Fault-simulation kernel: flat struct-of-arrays vs legacy engine";
  Pool.set_size 1;
  let counter name =
    Option.value ~default:0 (List.assoc_opt name (Obs.snapshot_counters ()))
  in
  let cpu = Soc.inst soc1 "CPU" in
  let nl = cpu.Soc.ci_netlist in
  let faults = Socet_atpg.Fault.collapse nl in
  let rng = Rng.create 31337 in
  let vecs =
    List.init 64 (fun _ -> Rng.bitvec rng (Socet_atpg.Fsim.vector_length nl))
  in
  (* Work unit: one fault x word-batch cone evaluation.  Both engines
     drop detected faults identically, so one counted run gives the eval
     count for either. *)
  let e0 = counter "atpg.fsim.fault_evals" in
  let flat_det = Socet_atpg.Fsim.run_comb nl ~vectors:vecs ~faults in
  let evals = counter "atpg.fsim.fault_evals" - e0 in
  let legacy_det = Socet_atpg.Fsim.run_comb_ref nl ~vectors:vecs ~faults in
  let identical = flat_det = legacy_det in
  let t_flat, _ =
    time_best (fun () -> Socet_atpg.Fsim.run_comb nl ~vectors:vecs ~faults)
  in
  let t_legacy, _ =
    time_best (fun () -> Socet_atpg.Fsim.run_comb_ref nl ~vectors:vecs ~faults)
  in
  let per_s t = float_of_int evals /. t in
  let engines =
    [
      ("flat", (t_flat *. 1000.0, per_s t_flat));
      ("legacy", (t_legacy *. 1000.0, per_s t_legacy));
    ]
  in
  let speedup = t_legacy /. t_flat in
  Ascii_table.print
    ~header:[ "engine"; "fault evals"; "wall (ms)"; "evals/s" ]
    (List.map
       (fun (name, (ms, eps)) ->
         [
           name;
           string_of_int evals;
           Printf.sprintf "%.2f" ms;
           Printf.sprintf "%.0f" eps;
         ])
       engines);
  Printf.printf "kernel speedup (single domain): %.1fx; detected lists %s\n"
    speedup
    (if identical then "byte-identical" else "DIFFER (BUG)");
  (match List.assoc_opt "atpg.fsim.cone_gates" (Obs.snapshot_histograms ()) with
  | Some s ->
      Printf.printf
        "cone sizes (gates per fault site, %d sites built): min %.0f p50 %.0f \
         p90 %.0f p99 %.0f max %.0f\n"
        s.Socet_obs.Histogram.s_count s.Socet_obs.Histogram.s_min
        s.Socet_obs.Histogram.s_p50 s.Socet_obs.Histogram.s_p90
        s.Socet_obs.Histogram.s_p99 s.Socet_obs.Histogram.s_max
  | None -> ());
  if not identical then failwith "flat kernel diverged from the legacy engine";
  let cone_gates =
    Option.bind
      (List.assoc_opt "histograms" (obs_snapshot ()))
      (Json.member "atpg.fsim.cone_gates")
  in
  ( "fsim_kernel",
    Json.Obj
      (List.map
         (fun (name, (ms, eps)) ->
           ( name,
             Json.Obj [ ("wall_ms", Json.Num ms); ("evals_per_s", Json.Num eps) ]
           ))
         engines
      @ [ ("speedup", Json.Num speedup); ("byte_identical", flag identical) ]
      @ Option.fold ~none:[] ~some:(fun h -> [ ("cone_gates", h) ]) cone_gates)
  )

(* ------------------------------------------------------------------ *)
(* Persistent result cache: warm vs cold                               *)
(* ------------------------------------------------------------------ *)

module Serve = Socet_serve
module Cache = Socet_cache.Cache

(* Sends [reqs] back to back on one connection and fails unless every
   job comes back Ok with exit code 0.  Returns jobs/s. *)
let closed_loop ~socket label reqs =
  let t0 = Unix.gettimeofday () in
  let done_ =
    match Serve.Client.connect socket with
    | Error _ -> 0
    | Ok c ->
        Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
            List.fold_left
              (fun n req ->
                match Serve.Client.request c req with
                | Ok r when r.Serve.Client.r_code = 0 -> n + 1
                | Ok _ | Error _ -> n)
              0 reqs)
  in
  let jobs = List.length reqs in
  if done_ < jobs then
    failwith (Printf.sprintf "%s: %d of %d jobs failed" label (jobs - done_) jobs);
  float_of_int jobs /. (Unix.gettimeofday () -. t0)

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error _ -> ()

let fleet_count = 120
let fleet_seed = 2026

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

let scoreboard_totals () =
  List.fold_left
    (fun (h, m) (_, h', m') -> (h + h', m + m'))
    (0, 0) (Cache.scoreboard ())

let hit_rate hits misses =
  float_of_int hits /. float_of_int (max 1 (hits + misses))

(* Fleet: the reproduction's 120-SOC workload, cold then warm against
   the store in [dir].  Fleet.run keeps both replay oracles engaged, so
   a cache bug that changes any planned result fails here, not just the
   byte-diff. *)
let cache_fleet dir =
  let store =
    match Cache.open_dir dir with
    | Ok s -> s
    | Error e -> failwith (Error.to_string e)
  in
  let run_fleet () =
    Cache.with_store (Some store) (fun () ->
        Socet_tam.Fleet.run ~seed:fleet_seed ~count:fleet_count ())
  in
  Cache.reset_scoreboard ();
  let cold_entries, cold_ms = time run_fleet in
  Cache.reset_scoreboard ();
  let warm_entries, warm_ms = time run_fleet in
  let hits, misses = scoreboard_totals () in
  let cold_out = Socet_tam.Fleet.render cold_entries in
  let identical = String.equal cold_out (Socet_tam.Fleet.render warm_entries) in
  let check label entries =
    let s = Socet_tam.Fleet.summarize entries in
    if s.Socet_tam.Fleet.s_failures > 0 || s.Socet_tam.Fleet.s_issues > 0 then
      failwith (label ^ " cached fleet pass failed the replay oracle")
  in
  check "cold" cold_entries;
  check "warm" warm_entries;
  if not identical then failwith "warm fleet output differs from cold";
  let store_bytes = Socet_cache.Store.bytes_used store in
  Ascii_table.print
    ~header:[ "pass"; "wall ms"; "hits"; "misses"; "hit rate" ]
    [
      [ "cold"; Printf.sprintf "%.0f" cold_ms; "0"; "-"; "0.00" ];
      [
        "warm";
        Printf.sprintf "%.0f" warm_ms;
        string_of_int hits;
        string_of_int misses;
        Printf.sprintf "%.2f" (hit_rate hits misses);
      ];
    ];
  Printf.printf
    "warm/cold = %.2f (acceptance: <= 0.50); outputs byte-identical; store %d KiB\n"
    (warm_ms /. cold_ms)
    (store_bytes / 1024);
  (* Warm fleet under >= 4 pool domains: only meaningful with >= 4
     hardware threads, so gate on the runner. *)
  let hw = Stdlib.Domain.recommended_domain_count () in
  let domain_scaling =
    if hw >= 4 then begin
      Pool.set_size 4;
      let entries, ms = time run_fleet in
      Pool.set_size 1;
      if not (String.equal cold_out (Socet_tam.Fleet.render entries)) then
        failwith "4-domain warm fleet output differs from cold";
      Printf.printf "warm fleet at 4 domains: %.0f ms (byte-identical)\n" ms;
      [ ("skipped", flag false); ("warm_ms_4_domains", Json.Num ms) ]
    end
    else begin
      Printf.printf
        "(>=4-domain warm pass skipped: runner reports %d hardware thread(s))\n"
        hw;
      [ ("skipped", flag true); ("hardware_threads", int hw) ]
    end
  in
  ( Json.Obj
      [
        ("socs", int fleet_count);
        ("cold_ms", Json.Num cold_ms);
        ("warm_ms", Json.Num warm_ms);
        ("warm_over_cold", Json.Num (warm_ms /. cold_ms));
        ("hits", int hits);
        ("misses", int misses);
        ("hit_rate", Json.Num (hit_rate hits misses));
        ("byte_identical", flag identical);
        ("store_bytes", int store_bytes);
      ],
    Json.Obj domain_scaling )

(* Serve path: chip and atpg jobs through the wire protocol with the
   request-level cache field naming [dir], one sequential client, two
   passes. *)
let cache_serve dir =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ()) "socet-bench-cache.sock"
  in
  let chip system backend =
    Serve.Proto.Chip
      { Serve.Proto.ch_system = system; ch_strict = false; ch_backend = backend }
  in
  let reqs =
    List.map
      (fun body -> Serve.Proto.make ~cache:dir body)
      [
        chip "system1" Serve.Proto.Ccg;
        chip "system1" Serve.Proto.Tam;
        chip "system2" Serve.Proto.Ccg;
        chip "system2" Serve.Proto.Tam;
        Serve.Proto.Atpg { Serve.Proto.at_core = "cpu" };
        Serve.Proto.Atpg { Serve.Proto.at_core = "gcd" };
        Serve.Proto.Atpg { Serve.Proto.at_core = "display" };
        Serve.Proto.Atpg { Serve.Proto.at_core = "preprocessor" };
      ]
  in
  let srv = Serve.Server.start ~queue_depth:16 ~socket () in
  let cold_jobs_s, warm_jobs_s, serve_hit_rate =
    Fun.protect
      ~finally:(fun () ->
        Serve.Server.shutdown srv;
        ignore (Serve.Server.wait srv))
      (fun () ->
        let cold = closed_loop ~socket "cache serve cold pass" reqs in
        Cache.reset_scoreboard ();
        let warm = closed_loop ~socket "cache serve warm pass" reqs in
        let sh, sm = scoreboard_totals () in
        (cold, warm, hit_rate sh sm))
  in
  Printf.printf
    "serve (%d chip jobs, request-level cache field): cold %.1f jobs/s, \
     warm %.1f jobs/s, warm hit rate %.2f\n"
    (List.length reqs) cold_jobs_s warm_jobs_s serve_hit_rate;
  Json.Obj
    [
      ("cold_jobs_per_s", Json.Num cold_jobs_s);
      ("warm_jobs_per_s", Json.Num warm_jobs_s);
      ("warm_hit_rate", Json.Num serve_hit_rate);
    ]

(* Both stores live under the temp dir and are removed on every exit
   path, failures included. *)
let cache_section () =
  section "Persistent result cache: warm vs cold";
  let tmp_dir tag =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "socet-bench-cache-%s-%d" tag (Unix.getpid ()))
  in
  let fleet_dir = tmp_dir "fleet" and serve_dir = tmp_dir "serve" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf fleet_dir;
      rm_rf serve_dir)
    (fun () ->
      let fleet, domain_scaling = cache_fleet fleet_dir in
      let serve = cache_serve serve_dir in
      ( "cache",
        Json.Obj
          [ ("fleet", fleet); ("serve", serve); ("domain_scaling", domain_scaling) ]
      ))

(* ------------------------------------------------------------------ *)
(* Machine-readable output: BENCH_socet.json                           *)
(* ------------------------------------------------------------------ *)

(* Header, then the sections' entries in run order, then the library
   exporter's metrics snapshot. *)
let write_bench_json file sections =
  let doc =
    Json.Obj
      ((("bench", Json.Str "socet")
       :: ("paper", Json.Str "DAC'98 Ghosh/Dey/Jha")
       :: sections)
      @ obs_snapshot ())
  in
  let oc = open_out file in
  output_string oc (Json.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" file

let () =
  (* No-op sink: counters and span timers accumulate, but no trace
     events are buffered — keeps the harness overhead negligible. *)
  Obs.configure ();
  Printf.printf "SOCET perf smoke (DAC'98 Ghosh/Dey/Jha)\n";
  (* Sequential lets: the sections run in this order. *)
  let parallel = parallel_section () in
  let fsim_kernel = fsim_kernel_section () in
  let cache = cache_section () in
  write_bench_json "BENCH_socet.json" [ parallel; fsim_kernel; cache ]
