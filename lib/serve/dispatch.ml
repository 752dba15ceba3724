open Socet_core
module Backend = Socet_tam.Backend
module Err = Socet_util.Error
module Budget = Socet_util.Budget
module Ascii_table = Socet_util.Ascii_table
module Obs = Socet_obs.Obs

type outcome = { o_stdout : string; o_stderr : string; o_code : int }

let exit_exhausted = 4

let ok ?(stderr = "") ?(code = 0) out = Ok { o_stdout = out; o_stderr = stderr; o_code = code }

(* ------------------------------------------------------------------ *)
(* Shared input resolution (also used by the CLI subcommands)          *)
(* ------------------------------------------------------------------ *)

let builtin_cores () =
  [
    ("cpu", Socet_cores.Cpu.core ());
    ("preprocessor", Socet_cores.Preprocessor.core ());
    ("display", Socet_cores.Display.core ());
    ("gcd", Socet_cores.Gcd_core.core ());
    ("graphics", Socet_cores.Graphics.core ());
    ("x25", Socet_cores.X25.core ());
  ]

(* Load-time validation: every elaborated core netlist goes through the
   structural validator before any engine touches it, so corruption is
   reported as a clean exit-code-3 failure naming the net, not a crash
   deep inside ATPG or scheduling. *)
let validated soc =
  List.iter
    (fun ci -> Socet_netlist.Validate.check_exn ci.Soc.ci_netlist)
    soc.Soc.insts;
  soc

let system_of_name name =
  match name with
  | "system1" | "1" | "barcode" -> Ok (validated (Socet_cores.Systems.system1 ()))
  | "system2" | "2" -> Ok (validated (Socet_cores.Systems.system2 ()))
  | "system3" | "3" -> Ok (validated (Socet_cores.Systems.system3 ()))
  | s ->
      Err.error ~engine:"cli"
        (Printf.sprintf "unknown system %S (use system1/system2/system3)" s)

let core_of_name name =
  match List.assoc_opt name (builtin_cores ()) with
  | Some core -> Ok core
  | None ->
      Err.error ~engine:"cli"
        (Printf.sprintf "unknown core %S (try: %s)" name
           (String.concat ", " (List.map fst (builtin_cores ()))))

let ( let* ) = Result.bind

let deadline_s = function None -> None | Some ms -> Some (float_of_int ms /. 1000.0)

(* ------------------------------------------------------------------ *)
(* Request implementations                                             *)
(* ------------------------------------------------------------------ *)

let run_explore ~deadline_ms e =
  let* soc = system_of_name e.Proto.ex_system in
  let budget =
    match (e.Proto.ex_search_budget, deadline_ms) with
    | None, None -> None
    | steps, dl ->
        Some (Budget.create ~label:"select.opt" ?steps ?deadline_s:(deadline_s dl) ())
  in
  let use_memo = not e.Proto.ex_no_memo in
  let traj =
    match e.Proto.ex_objective with
    | Proto.Min_time ->
        Select.minimize_time ?budget ~use_memo soc ~max_area:e.Proto.ex_max_area
    | Proto.Min_area ->
        Select.minimize_area ?budget ~use_memo soc ~max_time:e.Proto.ex_max_time
  in
  let out = Buffer.create 1024 in
  Buffer.add_string out
    (Ascii_table.render
       ~header:[ "step"; "versions"; "muxes"; "area"; "TAT" ]
       (List.mapi
          (fun i p ->
            [
              string_of_int i;
              String.concat " "
                (List.map
                   (fun (n, k) -> Printf.sprintf "%s=%d" n k)
                   p.Select.pt_choice);
              string_of_int (List.length p.Select.pt_smuxes);
              string_of_int p.Select.pt_area;
              string_of_int p.Select.pt_time;
            ])
          traj));
  let best = Select.best_time_point traj in
  Buffer.add_string out
    (Printf.sprintf "best: area %d cells, TAT %d cycles\n" best.Select.pt_area
       best.Select.pt_time);
  match budget with
  | Some b when Budget.exhausted b ->
      ok (Buffer.contents out)
        ~stderr:"search budget exhausted; reporting best point found so far\n"
        ~code:exit_exhausted
  | _ -> ok (Buffer.contents out)

(* Both backends produce the same report shape; for ccg this renders the
   historical bytes exactly (DESIGN.md §11's byte-identity contract spans
   both backends — CI diffs server output against the direct CLI). *)
let render_plan (p : Backend.plan) =
  let out = Buffer.create 1024 in
  Buffer.add_string out
    (Ascii_table.render
       ~header:[ "core"; "mechanism"; "test time"; "extra area" ]
       (List.map
          (fun (r : Backend.core_row) ->
            [
              r.Backend.r_inst;
              r.Backend.r_mech;
              string_of_int r.Backend.r_time;
              string_of_int r.Backend.r_area;
            ])
          p.Backend.p_rows));
  Buffer.add_string out
    (Printf.sprintf "total time: %d cycles, area overhead: %d cells\n"
       p.Backend.p_total_time p.Backend.p_area_overhead);
  if p.Backend.p_degraded > 0 then
    Buffer.add_string out
      (Printf.sprintf "degraded: %d core(s) fell back to FSCAN-BSCAN\n"
         p.Backend.p_degraded);
  Buffer.contents out

let run_chip ~deadline_ms c =
  let* soc = system_of_name c.Proto.ch_system in
  let budget =
    Option.map
      (fun s -> Budget.create ~label:"chip" ~deadline_s:s ())
      (deadline_s deadline_ms)
  in
  let* p =
    match c.Proto.ch_backend with
    | Proto.Ccg -> Backend.Ccg_backend.plan ?budget soc
    | Proto.Tam -> Backend.Tam_backend.plan ?budget soc
  in
  let out = render_plan p in
  if c.Proto.ch_strict && p.Backend.p_degraded > 0 then
    ok out
      ~stderr:
        (Printf.sprintf "socet: --strict and %d core(s) degraded to the baseline\n"
           p.Backend.p_degraded)
      ~code:exit_exhausted
  else ok out

let run_atpg a =
  let* core = core_of_name a.Proto.at_core in
  let nl = Socet_synth.Elaborate.core_to_netlist core in
  let stats = Soc.core_atpg nl in
  let out = Buffer.create 256 in
  Buffer.add_string out
    (Ascii_table.render
       ~header:[ "core"; "faults"; "vectors"; "FC %"; "TEff %"; "aborted" ]
       [
         [
           a.Proto.at_core;
           string_of_int stats.Socet_atpg.Podem.total_faults;
           string_of_int (List.length stats.Socet_atpg.Podem.vectors);
           Printf.sprintf "%.1f" stats.Socet_atpg.Podem.coverage;
           Printf.sprintf "%.1f" stats.Socet_atpg.Podem.efficiency;
           string_of_int (List.length stats.Socet_atpg.Podem.aborted);
         ];
       ]);
  ok (Buffer.contents out)

let run req =
  let deadline_ms = req.Proto.rq_deadline_ms in
  let dispatch_body () =
    match req.Proto.rq_body with
    | Proto.Ping -> ok (Proto.version_lines ())
    | Proto.Stats -> ok (Obs.stats_json () ^ "\n")
    | Proto.Health ->
        (* Only the server can see the fleet; answered in [Server] before
           the queue.  Reaching here means a direct [Dispatch.run] call. *)
        ok (Proto.encode_health
              {
                Proto.hl_uptime_ms = 0;
                hl_queue_depth = 0;
                hl_pending = 0;
                hl_workers = [];
                hl_breaker_open = false;
                hl_retries = 0;
              }
            ^ "\n")
    | Proto.Explore e -> run_explore ~deadline_ms e
    | Proto.Chip c -> run_chip ~deadline_ms c
    | Proto.Atpg a -> run_atpg a
  in
  (* The request's cache directory is scoped to this execution: opened
     first (a bad directory is a structured Validation error — exit code
     3 at the client, like any other input error) and restored after, so
     one cached request never leaks a store into the next. *)
  let dispatch () =
    let* store =
      match req.Proto.rq_cache with
      | None -> Ok None
      | Some dir -> Result.map Option.some (Socet_cache.Cache.open_dir dir)
    in
    Socet_cache.Cache.with_store store dispatch_body
  in
  (* Boundary adapter: no input, however corrupt, escapes as an uncaught
     exception — raw exceptions become structured [Internal] errors. *)
  match Err.guard ~engine:"serve" dispatch with
  | Ok result -> result
  | Error e -> Error e
  | exception e ->
      Error (Err.make ~kind:Err.Internal ~engine:"serve" (Printexc.to_string e))
