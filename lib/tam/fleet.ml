(* The random-SOC fleet workload over both chip backends (fleet.mli). *)

module Soc = Socet_core.Soc
module Obs = Socet_obs.Obs
module Rng = Socet_util.Rng
module Pool = Socet_util.Pool
module Err = Socet_util.Error
module Ascii_table = Socet_util.Ascii_table

type outcome = { o_time : int; o_area : int }

type entry = {
  e_index : int;
  e_soc : string;
  e_cores : int;
  e_ccg : (outcome, string) result;
  e_tam : (outcome, string) result;
  e_issues : int;
}

type summary = {
  s_count : int;
  s_failures : int;
  s_issues : int;
  s_ccg_mean_time : float;
  s_ccg_mean_area : float;
  s_tam_mean_time : float;
  s_tam_mean_area : float;
  s_tam_time_wins : int;
}

let c_socs = Obs.counter ~scope:"tam" "fleet.socs"
let c_issues = Obs.counter ~scope:"tam" "fleet.replay_issues"

(* Entry i's generator depends on (seed, i) alone — independent of the
   domain count and of every other entry. *)
let entry_rng ~seed i = Rng.create ((seed * 1_000_003) + i)

let one ~width ~cores ~hetero ~seed i =
  Obs.incr c_socs;
  let rng = entry_rng ~seed i in
  let soc = Socet_cores.Gen.random_soc ?cores ~hetero rng in
  let issues = ref 0 in
  let outcome_of = function
    | Error e ->
        (* A TAM replay violation arrives as a structured Internal error. *)
        if e.Err.err_kind = Err.Internal then incr issues;
        Error (Err.to_string e)
    | Ok p ->
        (match p.Backend.p_detail with
        | Backend.D_ccg sched when p.Backend.p_degraded = 0 ->
            let n = List.length (Socet_core.Replay.check sched) in
            issues := !issues + n
        | _ -> ());
        Ok { o_time = p.Backend.p_total_time; o_area = p.Backend.p_area_overhead }
  in
  let e_ccg = outcome_of (Backend.Ccg_backend.plan soc) in
  let e_tam = outcome_of (Backend.Tam_backend.plan ?width soc) in
  Obs.add c_issues !issues;
  {
    e_index = i;
    e_soc = soc.Soc.soc_name;
    e_cores = List.length soc.Soc.insts;
    e_ccg;
    e_tam;
    e_issues = !issues;
  }

let run ?width ?cores ?(hetero = true) ~seed ~count () =
  Obs.with_span ~cat:"tam" "fleet.run" @@ fun () ->
  Pool.parallel_map_list (one ~width ~cores ~hetero ~seed) (List.init count Fun.id)

let summarize entries =
  let ok = function Ok _ -> true | Error _ -> false in
  let both =
    List.filter_map
      (fun e ->
        match (e.e_ccg, e.e_tam) with
        | Ok c, Ok t -> Some (c, t)
        | _ -> None)
      entries
  in
  let n = List.length both in
  let mean f = if n = 0 then 0.0 else List.fold_left (fun a p -> a +. f p) 0.0 both /. float_of_int n in
  {
    s_count = List.length entries;
    s_failures =
      List.length (List.filter (fun e -> not (ok e.e_ccg && ok e.e_tam)) entries);
    s_issues = List.fold_left (fun a e -> a + e.e_issues) 0 entries;
    s_ccg_mean_time = mean (fun (c, _) -> float_of_int c.o_time);
    s_ccg_mean_area = mean (fun (c, _) -> float_of_int c.o_area);
    s_tam_mean_time = mean (fun (_, t) -> float_of_int t.o_time);
    s_tam_mean_area = mean (fun (_, t) -> float_of_int t.o_area);
    s_tam_time_wins =
      List.length (List.filter (fun (c, t) -> t.o_time < c.o_time) both);
  }

let render entries =
  let show = function
    | Ok o -> (string_of_int o.o_time, string_of_int o.o_area)
    | Error _ -> ("-", "-")
  in
  let preview = 12 in
  let rows =
    List.filteri (fun i _ -> i < preview) entries
    |> List.map (fun e ->
           let ct, ca = show e.e_ccg and tt, ta = show e.e_tam in
           [
             string_of_int e.e_index;
             e.e_soc;
             string_of_int e.e_cores;
             ct;
             ca;
             tt;
             ta;
             string_of_int e.e_issues;
           ])
  in
  let s = summarize entries in
  Ascii_table.render
    ~header:
      [ "#"; "soc"; "cores"; "ccg TAT"; "ccg area"; "tam TAT"; "tam area"; "issues" ]
    rows
  ^ (if List.length entries > preview then
       Printf.sprintf "... (%d more SOCs)\n" (List.length entries - preview)
     else "")
  ^ Printf.sprintf
      "fleet: %d SOCs, %d failure(s), %d replay issue(s)\n\
       mean TAT: ccg %.0f vs tam %.0f cycles; mean chip DFT: ccg %.0f vs tam \
       %.0f cells; tam faster on %d/%d\n"
      s.s_count s.s_failures s.s_issues s.s_ccg_mean_time s.s_tam_mean_time
      s.s_ccg_mean_area s.s_tam_mean_area s.s_tam_time_wins s.s_count
