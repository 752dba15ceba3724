(* The socet command-line tool: inspect cores, explore SOC design points,
   and evaluate testability — the user-facing face of the library.

     dune exec bin/socet_cli.exe -- --help
*)

open Cmdliner
open Socet_rtl
open Socet_core
module Obs = Socet_obs.Obs
module Err = Socet_util.Error
module Proto = Socet_serve.Proto
module Dispatch = Socet_serve.Dispatch

(* Documented exit codes (full table in README): engine failures surface
   as structured errors mapped to distinct codes, never as raw exceptions
   through main. *)
let exit_invalid = 3
let exit_exhausted = 4
let exit_overloaded = 5
let exit_internal = 1

let exits =
  Cmd.Exit.info exit_invalid
    ~doc:
      "on invalid input: an unknown core or system, a malformed request, \
       or a netlist that fails load-time validation."
  :: Cmd.Exit.info exit_exhausted
       ~doc:
         "on search-budget or deadline exhaustion, or a degraded result \
          under $(b,--strict)."
  :: Cmd.Exit.info exit_overloaded
       ~doc:
         "when the server rejects a request because its job queue is full \
          or draining; retriable after the suggested backoff."
  :: Cmd.Exit.defaults

(* ------------------------------------------------------------------ *)
(* Common plumbing: --stats / --trace / --jobs on every subcommand     *)
(* ------------------------------------------------------------------ *)

type obs_opts = { oo_stats : bool; oo_trace : string option; oo_jobs : int option }

let obs_opts_t =
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the engines' observability report (counters, span \
             timers, histograms) after the command finishes.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record engine spans.  A $(docv) ending in .jsonl streams \
             events to disk as they complete (bounded memory, suitable \
             for long runs and servers); any other name buffers spans \
             and writes Chrome trace-event JSON on exit (load it in \
             chrome://tracing or https://ui.perfetto.dev).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N" ~env:(Cmd.Env.info "SOCET_DOMAINS")
          ~doc:
            "Number of domains for the parallel engines (fault \
             simulation, design-space search).  $(docv)=1 runs \
             sequentially; the default is the machine's recommended \
             domain count.  Results are identical at any setting.")
  in
  Term.(
    const (fun oo_stats oo_trace oo_jobs -> { oo_stats; oo_trace; oo_jobs })
    $ stats $ trace $ jobs)

let streaming_trace opts =
  match opts.oo_trace with
  | Some file when Filename.check_suffix file ".jsonl" -> Some file
  | _ -> None

let with_obs opts run =
  Option.iter Socet_util.Pool.set_size opts.oo_jobs;
  if opts.oo_stats || opts.oo_trace <> None then
    Obs.configure
      ~trace:(opts.oo_trace <> None)
      ?stream:(streaming_trace opts) ();
  let code =
    try run () with
    | Err.Socet_error e ->
        prerr_endline (Err.to_string e);
        Err.exit_code e
    | Stack_overflow | Out_of_memory | Sys.Break as e -> raise e
    | e ->
        (* Last line of defence behind Error.guard: an escaping exception
           is still a documented internal-error exit, not an OCaml
           backtrace with an unspecified status. *)
        Printf.eprintf "socet: internal error: %s\n" (Printexc.to_string e);
        exit_internal
  in
  if opts.oo_stats then print_string (Obs.stats_table ());
  match (opts.oo_trace, streaming_trace opts) with
  | None, _ -> code
  | Some _, Some _ ->
      (* Events already on disk; just push out the tail of the buffer. *)
      Obs.flush ();
      code
  | Some file, None -> (
      try
        Obs.write_trace file;
        Printf.eprintf "wrote %d spans to %s\n"
          (List.length (Obs.span_events ()))
          file;
        code
      with Sys_error e ->
        Printf.eprintf "socet: cannot write trace: %s\n" e;
        1)

(* Shared input resolution lives in Socet_serve.Dispatch so the server
   resolves names identically; [or_die] funnels the structured error into
   [with_obs]'s handler (exit code 3). *)
let or_die = function Ok v -> v | Error e -> raise (Err.Socet_error e)

let builtin_cores = Dispatch.builtin_cores
let core_of_name name = or_die (Dispatch.core_of_name name)
let system_of_name name = or_die (Dispatch.system_of_name name)

(* --cache DIR: the persistent result store (DESIGN.md §16).  Validated
   up front — create-if-missing, not-a-directory and unwritable paths
   are structured Validation errors, exit code 3 through [with_obs]. *)
module Cache = Socet_cache.Cache

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Persist per-core ATPG results (vector sets, fault lists) in \
           a content-addressed store under $(docv), created if missing. \
           Cached results are byte-identical to recomputation; the \
           store is bounded \
           ($(b,SOCET_CACHE_LIMIT_MB), default 256) and LRU-evicted, \
           and a corrupt entry reads as a miss, never a failure.")

let activate_cache cache =
  Option.iter (fun dir -> or_die (Cache.activate_dir dir)) cache

(* explore/chip/atpg run through the same Dispatch entry the server uses,
   so `socet submit` output is byte-identical to the direct command. *)
let run_request opts req =
  with_obs opts @@ fun () ->
  match Dispatch.run req with
  | Ok o ->
      print_string o.Dispatch.o_stdout;
      prerr_string o.Dispatch.o_stderr;
      o.Dispatch.o_code
  | Error e -> raise (Err.Socet_error e)

(* ------------------------------------------------------------------ *)
(* socet cores                                                         *)
(* ------------------------------------------------------------------ *)

let cmd_cores opts () =
  with_obs opts @@ fun () ->
  let rows =
    List.map
      (fun (key, core) ->
        let ci = Soc.instantiate key core in
        [
          key;
          string_of_int (Socet_netlist.Netlist.area ci.Soc.ci_netlist);
          string_of_int (List.length (Socet_netlist.Netlist.dffs ci.Soc.ci_netlist));
          string_of_int (Rtl_core.input_bit_count core);
          string_of_int (Rtl_core.output_bit_count core);
          string_of_int ci.Soc.ci_hscan.Socet_scan.Hscan.depth;
          string_of_int (List.length ci.Soc.ci_versions);
        ])
      (builtin_cores ())
  in
  Socet_util.Ascii_table.print
    ~header:[ "core"; "area"; "FFs"; "in bits"; "out bits"; "hscan depth"; "versions" ]
    rows;
  0

(* ------------------------------------------------------------------ *)
(* socet core <name>                                                   *)
(* ------------------------------------------------------------------ *)

let cmd_core opts name =
  with_obs opts @@ fun () ->
  let core = core_of_name name in
  Format.printf "%a@." Rtl_core.pp core;
  let ci = Soc.instantiate name core in
  let rcg = ci.Soc.ci_rcg and hscan = ci.Soc.ci_hscan in
  Printf.printf "HSCAN: depth %d, %d cells, chains:\n"
    hscan.Socet_scan.Hscan.depth hscan.Socet_scan.Hscan.overhead_cells;
  List.iter
    (fun chain ->
      print_string "  ";
      print_endline
        (String.concat " -> "
           (List.map (fun v -> (Rcg.node rcg v).Rcg.n_name) chain)))
    hscan.Socet_scan.Hscan.chains;
  List.iter
    (fun v ->
      Printf.printf "Version %d (%d cells):\n" v.Version.v_index
        v.Version.v_overhead;
      List.iter
        (fun p ->
          Printf.printf "  %s -> %s : %d cycle(s)\n"
            (Rcg.node rcg p.Version.pr_input).Rcg.n_name
            (Rcg.node rcg p.Version.pr_output).Rcg.n_name p.Version.pr_latency)
        v.Version.v_pairs)
    ci.Soc.ci_versions;
  0

(* ------------------------------------------------------------------ *)
(* socet space <system>                                                *)
(* ------------------------------------------------------------------ *)

let cmd_space opts system =
  with_obs opts @@ fun () ->
  let soc = system_of_name system in
  let points = Select.design_space soc in
  Socet_util.Ascii_table.print
    ~header:[ "pt"; "versions"; "area ovhd (cells)"; "TAT (cycles)" ]
    (List.mapi
       (fun i p ->
         [
           string_of_int (i + 1);
           String.concat " "
             (List.map
                (fun (n, k) -> Printf.sprintf "%s=%d" n k)
                p.Select.pt_choice);
           string_of_int p.Select.pt_area;
           string_of_int p.Select.pt_time;
         ])
       points);
  0

(* ------------------------------------------------------------------ *)
(* socet explore <system>                                              *)
(* ------------------------------------------------------------------ *)

let cmd_explore opts cache system objective max_area max_time search_budget
    no_memo =
  run_request opts
    (Proto.make ?cache
       (Proto.Explore
          {
            Proto.ex_system = system;
            ex_objective =
              (match objective with `Time -> Proto.Min_time | `Area -> Proto.Min_area);
            ex_max_area = max_area;
            ex_max_time = max_time;
            ex_search_budget = search_budget;
            ex_no_memo = no_memo;
          }))

(* ------------------------------------------------------------------ *)
(* socet coverage <system>                                             *)
(* ------------------------------------------------------------------ *)

let cmd_coverage opts system cycles =
  with_obs opts @@ fun () ->
  let soc = system_of_name system in
  let orig = Testgen.sequential_coverage soc ~cycles () in
  let hscan_only =
    Testgen.sequential_coverage soc ~with_core_scan:true ~cycles ()
  in
  let full = Testgen.scan_access_coverage soc in
  Socet_util.Ascii_table.print
    ~header:[ "access mechanism"; "FC %"; "TEff %" ]
    [
      [
        "none (functional stimuli)";
        Printf.sprintf "%.1f" orig.Testgen.fc;
        Printf.sprintf "%.1f" orig.Testgen.teff;
      ];
      [
        "core HSCAN only";
        Printf.sprintf "%.1f" hscan_only.Testgen.fc;
        Printf.sprintf "%.1f" hscan_only.Testgen.teff;
      ];
      [
        "full scan access (SOCET / FSCAN-BSCAN)";
        Printf.sprintf "%.1f" full.Testgen.fc;
        Printf.sprintf "%.1f" full.Testgen.teff;
      ];
    ];
  0

(* ------------------------------------------------------------------ *)
(* socet baseline <system>                                             *)
(* ------------------------------------------------------------------ *)

let cmd_baseline opts system =
  with_obs opts @@ fun () ->
  let soc = system_of_name system in
  let b = Baseline.evaluate soc in
  let all_v1 = List.map (fun ci -> (ci.Soc.ci_name, 1)) soc.Soc.insts in
  let s = Schedule.build soc ~choice:all_v1 () in
  Socet_util.Ascii_table.print
    ~header:[ "method"; "core DFT (cells)"; "chip DFT (cells)"; "TAT (cycles)" ]
    [
      [
        "FSCAN-BSCAN";
        string_of_int b.Baseline.b_core_scan_overhead;
        string_of_int b.Baseline.b_ring_overhead;
        string_of_int b.Baseline.b_time;
      ];
      [
        "SOCET (all version 1)";
        string_of_int (Soc.hscan_area_overhead soc);
        string_of_int s.Schedule.s_area_overhead;
        string_of_int s.Schedule.s_total_time;
      ];
    ];
  0

(* ------------------------------------------------------------------ *)
(* socet dot                                                           *)
(* ------------------------------------------------------------------ *)

let cmd_dot opts kind name =
  with_obs opts @@ fun () ->
  match kind with
  | `Core ->
      let core = core_of_name name in
      let rcg = Rcg.of_core core in
      let _ = Socet_scan.Hscan.insert rcg in
      print_string (Export.rcg_dot rcg);
      0
  | `System ->
      let soc = system_of_name name in
      let choice = List.map (fun ci -> (ci.Soc.ci_name, 1)) soc.Soc.insts in
      print_string (Export.ccg_dot (Ccg.build soc ~choice));
      0

(* ------------------------------------------------------------------ *)
(* socet schedule                                                      *)
(* ------------------------------------------------------------------ *)

let cmd_schedule opts cache system overlap =
  with_obs opts @@ fun () ->
  activate_cache cache;
  let soc = system_of_name system in
  let choice = List.map (fun ci -> (ci.Soc.ci_name, 1)) soc.Soc.insts in
  let s = Schedule.build soc ~choice () in
  print_string (Schedule.render s);
  if overlap then begin
    let makespan, starts = Schedule.parallel_makespan s in
    Printf.printf "overlapped makespan: %d cycles\n" makespan;
    List.iter (fun (c, st) -> Printf.printf "  %s starts at cycle %d\n" c st) starts
  end;
  0

(* ------------------------------------------------------------------ *)
(* socet chip <system>                                                 *)
(* ------------------------------------------------------------------ *)

let cmd_chip opts cache system deadline strict backend =
  run_request opts
    (Proto.make ?cache
       ?deadline_ms:(Option.map (fun s -> int_of_float (s *. 1000.0)) deadline)
       (Proto.Chip
          {
            Proto.ch_system = system;
            ch_strict = strict;
            ch_backend = backend;
          }))

(* ------------------------------------------------------------------ *)
(* socet tam [SYSTEM] / socet tam --fleet N                            *)
(* ------------------------------------------------------------------ *)

let cmd_tam opts cache system fleet seed cores width =
  with_obs opts @@ fun () ->
  activate_cache cache;
  let invalid msg = raise (Err.Socet_error (Err.make ~engine:"cli" msg)) in
  match (fleet, system) with
  | Some _, Some _ -> invalid "tam takes a SYSTEM or --fleet N, not both"
  | None, _ when cores <> None -> invalid "tam --cores needs --fleet N"
  | Some count, None ->
      let entries = Socet_tam.Fleet.run ?width ?cores ~seed ~count () in
      print_string (Socet_tam.Fleet.render entries);
      let s = Socet_tam.Fleet.summarize entries in
      if s.Socet_tam.Fleet.s_failures > 0 || s.Socet_tam.Fleet.s_issues > 0 then begin
        Printf.eprintf "socet: fleet found %d failure(s) and %d replay issue(s)\n"
          s.Socet_tam.Fleet.s_failures s.Socet_tam.Fleet.s_issues;
        exit_internal
      end
      else 0
  | None, None -> invalid "tam needs a SYSTEM or --fleet N"
  | None, Some system ->
      (* The backend replays every packing: an invalid one is a
         structured internal error (exit 1), never a printed schedule. *)
      let soc = system_of_name system in
      let p = or_die (Socet_tam.Backend.Tam_backend.plan ?width soc) in
      print_string (Socet_tam.Backend.render_detail p.Socet_tam.Backend.p_detail);
      0

(* ------------------------------------------------------------------ *)
(* socet gen --seed N --cores K                                        *)
(* ------------------------------------------------------------------ *)

let cmd_gen opts seed cores homogeneous =
  with_obs opts @@ fun () ->
  let rng = Socet_util.Rng.create seed in
  let soc =
    Socet_cores.Gen.random_soc ?cores ~hetero:(not homogeneous) rng
  in
  Printf.printf "%s: %d logic core(s), %d memory block(s)\n" soc.Soc.soc_name
    (List.length soc.Soc.insts)
    (List.length soc.Soc.memories);
  Socet_util.Ascii_table.print
    ~header:[ "core"; "area"; "FFs"; "in bits"; "out bits"; "hscan depth"; "vectors" ]
    (List.map
       (fun ci ->
         [
           ci.Soc.ci_name;
           string_of_int (Socet_netlist.Netlist.area ci.Soc.ci_netlist);
           string_of_int (List.length (Socet_netlist.Netlist.dffs ci.Soc.ci_netlist));
           string_of_int (Rtl_core.input_bit_count ci.Soc.ci_core);
           string_of_int (Rtl_core.output_bit_count ci.Soc.ci_core);
           string_of_int ci.Soc.ci_hscan.Socet_scan.Hscan.depth;
           string_of_int (Soc.atpg_vectors ci);
         ])
       soc.Soc.insts);
  List.iter
    (fun m ->
      Printf.printf "memory %s: %d bits, BIST %d cells\n" m.Soc.m_name
        m.Soc.m_bits m.Soc.m_bist_area)
    soc.Soc.memories;
  0

(* ------------------------------------------------------------------ *)
(* socet atpg <core>                                                   *)
(* ------------------------------------------------------------------ *)

let cmd_atpg opts cache core =
  run_request opts (Proto.make ?cache (Proto.Atpg { Proto.at_core = core }))

(* ------------------------------------------------------------------ *)
(* socet diff-test                                                     *)
(* ------------------------------------------------------------------ *)

(* Both backends' reports for one SOC as a single string — the unit of
   byte-identity checking across diff-test passes. *)
let plan_both soc width =
  let module B = Socet_tam.Backend in
  let render p = B.render_detail (or_die p).B.p_detail in
  (* Sequential lets: [^] may evaluate its right operand first. *)
  let ccg = render (B.Ccg_backend.plan soc) in
  ccg ^ render (B.Tam_backend.plan ?width soc)

(* A functional-but-equivalent netlist edit to the first core: an
   inverter pair spliced into its first primary output.  The logic
   function is unchanged, the structure is not — exactly the edit whose
   blast radius the incremental story bounds (its own ATPG recomputes;
   every other core's ATPG is reused). *)
let edit_first_core soc =
  match soc.Soc.insts with
  | [] -> ()
  | ci :: _ -> (
      let nl = ci.Soc.ci_netlist in
      match Socet_netlist.Netlist.pos nl with
      | [] -> ()
      | (po, net) :: _ ->
          let a = Socet_netlist.Netlist.add_gate nl Socet_netlist.Cell.Inv [| net |] in
          let b = Socet_netlist.Netlist.add_gate nl Socet_netlist.Cell.Inv [| a |] in
          Socet_netlist.Netlist.replace_po nl po b)

let cmd_diff_test opts cache seed cores width =
  with_obs opts @@ fun () ->
  or_die (Cache.activate_dir cache);
  let gen () =
    Socet_cores.Gen.random_soc ?cores ~hetero:true (Socet_util.Rng.create seed)
  in
  (* Each pass regenerates the SOC from the seed with the scoreboard
     reset first, so every lookup is tallied with the pass that made
     it. *)
  let run_pass label ~edit =
    Cache.reset_scoreboard ();
    let soc = gen () in
    if edit then edit_first_core soc;
    let out = plan_both soc width in
    (label, out, Cache.scoreboard ())
  in
  (* Sequential lets: a list literal's elements may evaluate in any
     order, and the passes share the store. *)
  let cold = run_pass "cold" ~edit:false in
  let warm = run_pass "warm" ~edit:false in
  let edited = run_pass "edited" ~edit:true in
  let warm_again = run_pass "warm-again" ~edit:false in
  let passes = [ cold; warm; edited; warm_again ] in
  Socet_util.Ascii_table.print
    ~header:[ "pass"; "namespace"; "reused"; "recomputed" ]
    (List.concat_map
       (fun (label, _, rows) ->
         List.map
           (fun (ns, hits, misses) ->
             [ label; ns; string_of_int hits; string_of_int misses ])
           rows)
       passes);
  let out_of l = match List.find (fun (p, _, _) -> p = l) passes with _, o, _ -> o in
  let totals l =
    match List.find (fun (p, _, _) -> p = l) passes with
    | _, _, rows ->
        List.fold_left (fun (h, m) (_, hits, misses) -> (h + hits, m + misses)) (0, 0) rows
  in
  let wh, wm = totals "warm" and eh, em = totals "edited" in
  Printf.printf "warm: reused %d, recomputed %d\n" wh wm;
  Printf.printf "edited core: reused %d, recomputed %d\n" eh em;
  let check what a b =
    if out_of a <> out_of b then
      raise
        (Err.Socet_error
           (Err.make ~kind:Err.Internal ~engine:"cache"
              (Printf.sprintf "%s: %s output differs from %s" what a b)))
  in
  (* The warm replay must be byte-identical to the cold one, and the
     edited pass must not have poisoned the unedited design's entries. *)
  check "cached replay" "warm" "cold";
  check "post-edit replay" "warm-again" "cold";
  print_endline "replay: warm and post-edit outputs byte-identical to cold";
  0

(* ------------------------------------------------------------------ *)
(* socet bist                                                          *)
(* ------------------------------------------------------------------ *)

let cmd_bist opts words width =
  with_obs opts @@ fun () ->
  let open Socet_bist in
  Socet_util.Ascii_table.print
    ~header:[ "algorithm"; "ops"; "coverage %" ]
    (List.map
       (fun (name, alg) ->
         let r = March.evaluate ~words ~width ~name alg in
         [ name; string_of_int r.March.ops; Printf.sprintf "%.1f" r.March.coverage ])
       [ ("March C-", March.march_c_minus); ("MATS+", March.mats_plus) ]);
  Printf.printf "BIST controller estimate: %d cells\n"
    (March.bist_area ~words ~width);
  0

(* ------------------------------------------------------------------ *)
(* socet version                                                       *)
(* ------------------------------------------------------------------ *)

let cmd_version opts () =
  with_obs opts @@ fun () ->
  print_string (Proto.version_lines ());
  0

(* ------------------------------------------------------------------ *)
(* socet serve / socet submit                                          *)
(* ------------------------------------------------------------------ *)

let cmd_serve opts cache socket queue_depth access_log workers max_retries
    stall_timeout_ms =
  with_obs opts @@ fun () ->
  (* Fail at startup, not on the first cached request: the directory is
     validated here and only its (known-good) path is handed to the
     server as the per-request default. *)
  Option.iter (fun dir -> ignore (or_die (Cache.open_dir dir))) cache;
  let srv =
    Socet_serve.Server.start ~queue_depth ?access_log ~workers ~max_retries
      ?stall_timeout_ms ?cache ~socket ()
  in
  Socet_serve.Server.install_signal_handlers srv;
  if workers > 0 then
    Printf.eprintf "socet: serving on %s (queue depth %d, %d worker(s))\n%!"
      socket queue_depth workers
  else
    Printf.eprintf "socet: serving on %s (queue depth %d)\n%!" socket queue_depth;
  let code = Socet_serve.Server.wait srv in
  Printf.eprintf "socet: drained, exiting\n%!";
  code

let cmd_submit opts cache socket deadline_ms retries retry_max_ms request =
  with_obs opts @@ fun () ->
  let req =
    match Proto.of_args ?deadline_ms ?cache request with
    | Ok req -> req
    | Error msg -> raise (Err.Socet_error (Err.make ~engine:"cli" msg))
  in
  let c = or_die (Socet_serve.Client.connect socket) in
  let reply = Fun.protect ~finally:(fun () -> Socet_serve.Client.close c)
      (fun () -> Socet_serve.Client.submit ~retries ~retry_max_ms c req)
  in
  let reply = or_die reply in
  print_string reply.Socet_serve.Client.r_stdout;
  prerr_string reply.Socet_serve.Client.r_stderr;
  reply.Socet_serve.Client.r_code

(* ------------------------------------------------------------------ *)
(* socet health                                                        *)
(* ------------------------------------------------------------------ *)

let cmd_health opts socket json =
  with_obs opts @@ fun () ->
  let c = or_die (Socet_serve.Client.connect socket) in
  let reply = Fun.protect ~finally:(fun () -> Socet_serve.Client.close c)
      (fun () -> Socet_serve.Client.request c (Proto.make Proto.Health))
  in
  let reply = or_die reply in
  if json then print_string reply.Socet_serve.Client.r_stdout
  else begin
    match Proto.decode_health reply.Socet_serve.Client.r_stdout with
    | Ok h -> print_string (Proto.render_health h)
    | Error msg ->
        raise
          (Err.Socet_error
             (Err.make ~engine:"cli" (Printf.sprintf "bad health report: %s" msg)))
  end;
  (* The server answers code 5 when the breaker is open, 0 otherwise, so
     the probe's exit status is itself the health signal. *)
  reply.Socet_serve.Client.r_code

(* ------------------------------------------------------------------ *)
(* Command wiring                                                      *)
(* ------------------------------------------------------------------ *)

let system_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"SYSTEM")

let cores_t = Term.(const cmd_cores $ obs_opts_t $ const ())

let core_t =
  Term.(
    const cmd_core $ obs_opts_t
    $ Arg.(required & pos 0 (some string) None & info [] ~docv:"CORE"))

let space_t = Term.(const cmd_space $ obs_opts_t $ system_arg)

let explore_t =
  let objective =
    Arg.(
      value
      & opt (enum [ ("time", `Time); ("area", `Area) ]) `Time
      & info [ "objective"; "o" ] ~doc:"Optimize test $(docv) (time or area).")
  in
  let max_area =
    Arg.(value & opt int 500 & info [ "max-area" ] ~doc:"Area budget in cells.")
  in
  let max_time =
    Arg.(value & opt int 5000 & info [ "max-time" ] ~doc:"TAT bound in cycles.")
  in
  let search_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "search-budget" ] ~docv:"NODES"
          ~doc:
            "Bound the optimizer search, in node-expansion units \
             (comparable to core.tsearch.nodes_expanded).  On exhaustion \
             the best point found so far is reported and the exit status \
             is 4.")
  in
  let no_memo =
    Arg.(
      value & flag
      & info [ "no-memo" ]
          ~doc:
            "Disable the route memo (one full schedule build per candidate \
             move).  Produces identical points; used to cross-check the \
             memoized search.")
  in
  Term.(
    const cmd_explore $ obs_opts_t $ cache_arg $ system_arg $ objective
    $ max_area $ max_time $ search_budget $ no_memo)

let coverage_t =
  let cycles =
    Arg.(value & opt int 512 & info [ "cycles" ] ~doc:"Functional stimulus length.")
  in
  Term.(const cmd_coverage $ obs_opts_t $ system_arg $ cycles)

let baseline_t = Term.(const cmd_baseline $ obs_opts_t $ system_arg)

let dot_t =
  let kind =
    Arg.(
      required
      & pos 0 (some (enum [ ("core", `Core); ("system", `System) ])) None
      & info [] ~docv:"KIND")
  in
  let target = Arg.(required & pos 1 (some string) None & info [] ~docv:"NAME") in
  Term.(const cmd_dot $ obs_opts_t $ kind $ target)

let bist_t =
  let words =
    Arg.(value & opt int 64 & info [ "words" ] ~doc:"Memory words to model.")
  in
  let width =
    Arg.(value & opt int 8 & info [ "width" ] ~doc:"Word width in bits.")
  in
  Term.(const cmd_bist $ obs_opts_t $ words $ width)

let schedule_t =
  let overlap =
    Arg.(value & flag & info [ "overlap" ] ~doc:"Also pack tests concurrently.")
  in
  Term.(const cmd_schedule $ obs_opts_t $ cache_arg $ system_arg $ overlap)

let chip_t =
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:
            "Wall-clock allowance for the whole planning run; on \
             exhaustion remaining work degrades (fallback schedules) or \
             the command exits with code 4.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Treat any degradation (a core falling back to FSCAN-BSCAN) \
             as a failure: exit with code 4 instead of 0.")
  in
  let backend =
    Arg.(
      value
      & opt (enum [ ("ccg", Proto.Ccg); ("tam", Proto.Tam) ]) Proto.Ccg
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "Chip test flow: $(b,ccg) (the paper's transparency access over \
             the core connectivity graph) or $(b,tam) (IEEE 1500-style \
             wrappers on a shared test access mechanism).")
  in
  Term.(
    const cmd_chip $ obs_opts_t $ cache_arg $ system_arg $ deadline $ strict
    $ backend)

let tam_t =
  let system =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SYSTEM")
  in
  let fleet =
    Arg.(
      value
      & opt (some int) None
      & info [ "fleet" ] ~docv:"N"
          ~doc:
            "Instead of one system, run both backends over $(docv) seeded \
             random SOCs and print the TAT-vs-area comparison; any backend \
             failure or replay violation makes the exit status nonzero.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fleet base seed.")
  in
  let cores =
    Arg.(
      value
      & opt (some int) None
      & info [ "cores" ] ~docv:"K" ~doc:"Logic cores per generated SOC.")
  in
  let width =
    Arg.(
      value
      & opt (some int) None
      & info [ "width" ] ~docv:"W"
          ~doc:"TAM width in wires (default 16).")
  in
  Term.(
    const cmd_tam $ obs_opts_t $ cache_arg $ system $ fleet $ seed $ cores
    $ width)

let gen_t =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed.") in
  let cores =
    Arg.(
      value
      & opt (some int) None
      & info [ "cores" ] ~docv:"K"
          ~doc:"Logic core count (default: seed-dependent, 2-4).")
  in
  let homogeneous =
    Arg.(
      value & flag
      & info [ "homogeneous" ]
          ~doc:
            "Disable the heterogeneous core mix (profiles, memories) and \
             reproduce the historical uniform generator stream.")
  in
  Term.(const cmd_gen $ obs_opts_t $ seed $ cores $ homogeneous)

let atpg_t =
  Term.(
    const cmd_atpg $ obs_opts_t $ cache_arg
    $ Arg.(required & pos 0 (some string) None & info [] ~docv:"CORE"))

let diff_test_t =
  let cache =
    Arg.(
      required
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Result store to measure reuse against (created if \
             missing).  Run twice against the same $(docv) to see a \
             fully warm second pass.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed.") in
  let cores =
    Arg.(
      value
      & opt (some int) None
      & info [ "cores" ] ~docv:"K" ~doc:"Logic cores in the generated SOC.")
  in
  let width =
    Arg.(
      value
      & opt (some int) None
      & info [ "width" ] ~docv:"W" ~doc:"TAM width in wires (default 16).")
  in
  Term.(const cmd_diff_test $ obs_opts_t $ cache $ seed $ cores $ width)

let version_t = Term.(const cmd_version $ obs_opts_t $ const ())

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_t =
  let queue_depth =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission bound: at most $(docv) jobs may be queued; beyond \
             that submissions are rejected with a retriable overload \
             error (exit code 5 at the client).")
  in
  let access_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSON line per completed job (label, wait, run \
             time, exit code) to $(docv).")
  in
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Run jobs in $(docv) forked, crash-isolated worker processes \
             under a supervisor: a crashed or hung worker is respawned \
             and its job retried (byte-identical — jobs are deterministic \
             and idempotent); a crash-looping fleet trips a circuit \
             breaker and the server drains with exit code 5.  $(docv)=0 \
             (default) runs jobs in-process, one at a time.")
  in
  let max_retries =
    Arg.(
      value & opt int 2
      & info [ "max-retries" ] ~docv:"K"
          ~doc:
            "Re-run a job lost to a worker crash or hang at most $(docv) \
             times before failing it with a structured worker-lost error.")
  in
  let stall_timeout =
    Arg.(
      value
      & opt (some int) None
      & info [ "stall-timeout" ] ~docv:"MS"
          ~doc:
            "Watchdog for jobs without their own deadline: a worker \
             silent for $(docv) milliseconds is presumed hung, killed and \
             its job retried (default 30000).")
  in
  Term.(
    const cmd_serve $ obs_opts_t $ cache_arg $ socket_arg $ queue_depth
    $ access_log $ workers $ max_retries $ stall_timeout)

let submit_t =
  let deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline" ] ~docv:"MS"
          ~doc:
            "Per-request deadline in milliseconds, enforced server-side: \
             expiring in the queue or mid-engine yields exit code 4.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"K"
          ~doc:
            "Resubmit an overload-rejected request up to $(docv) times, \
             backing off from the server's retry_after_ms hint with \
             exponential growth and jitter.")
  in
  let retry_max_ms =
    Arg.(
      value & opt int 2000
      & info [ "retry-max-ms" ] ~docv:"MS"
          ~doc:"Cap any single overload backoff wait at $(docv) milliseconds.")
  in
  let request =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "The request, after $(b,--): ping | stats | health | explore \
             SYSTEM [--objective time|area] [--max-area N] [--max-time N] \
             [--search-budget N] [--no-memo] | chip SYSTEM [--strict] \
             [--backend ccg|tam] | atpg CORE.")
  in
  Term.(
    const cmd_submit $ obs_opts_t $ cache_arg $ socket_arg $ deadline
    $ retries $ retry_max_ms $ request)

let health_t =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the raw JSON report instead of the table.")
  in
  Term.(const cmd_health $ obs_opts_t $ socket_arg $ json)

let () =
  (* A fork+exec'd fleet worker re-enters this binary; the guard routes
     it straight into the serve loop and never returns. *)
  Socet_serve.Worker.exec_guard ();
  Socet_util.Chaos.from_env ();
  let info name doc = Cmd.info name ~doc ~exits in
  let cmds =
    [
      Cmd.v (info "cores" "List the built-in example cores.") cores_t;
      Cmd.v (info "core" "Show one core: RCG, HSCAN chains, version ladder.") core_t;
      Cmd.v (info "space" "Enumerate all version-choice design points.") space_t;
      Cmd.v (info "explore" "Run the iterative-improvement optimizer.") explore_t;
      Cmd.v (info "coverage" "Fault coverage with and without test access.") coverage_t;
      Cmd.v (info "baseline" "Compare against the FSCAN-BSCAN baseline.") baseline_t;
      Cmd.v (info "dot" "Emit Graphviz for a core's RCG or a system's CCG.") dot_t;
      Cmd.v (info "schedule" "Show the chip-level test schedule.") schedule_t;
      Cmd.v
        (info "chip"
           "Plan the chip test with graceful degradation (budget, \
            per-core FSCAN-BSCAN fallback).")
        chip_t;
      Cmd.v
        (info "tam"
           "Wrapper/TAM co-optimization: wrap each core (IEEE 1500 style), \
            pack the tests onto the TAM, or sweep a random-SOC fleet \
            against the ccg backend.")
        tam_t;
      Cmd.v
        (info "gen"
           "Generate and describe a seeded random SOC (the fleet \
            workload's generator).")
        gen_t;
      Cmd.v (info "atpg" "Run combinational ATPG (PODEM) on one core.") atpg_t;
      Cmd.v
        (info "diff-test"
           "Incremental re-test report: plan a seeded SOC cold, warm, \
            and after editing one core, tallying reused vs recomputed \
            work per cache namespace and checking cached replays are \
            byte-identical.")
        diff_test_t;
      Cmd.v (info "bist" "Evaluate March memory-BIST algorithms.") bist_t;
      Cmd.v
        (info "serve"
           "Run the job server on a Unix-domain socket: framed requests, \
            bounded FIFO queue over the domain pool, graceful drain on \
            SIGTERM/SIGINT.")
        serve_t;
      Cmd.v
        (info "submit"
           "Send one request to a running server and relay its output \
            (byte-identical to the direct subcommand) and exit code.")
        submit_t;
      Cmd.v
        (info "health"
           "Probe a running server: uptime, queue depth, per-worker \
            state.  Exits 0 when healthy, 5 when the worker-fleet \
            circuit breaker is open.")
        health_t;
      Cmd.v
        (info "version" "Print version, protocol, OCaml and feature info.")
        version_t;
    ]
  in
  let root =
    Cmd.group
      (Cmd.info "socet" ~version:Proto.package_version ~exits
         ~doc:"Transparency-based core test planning (DAC'98 SOCET reproduction).")
      cmds
  in
  exit (Cmd.eval' root)
