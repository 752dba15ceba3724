open Socet_util
open Socet_netlist
open Socet_atpg
module Obs = Socet_obs.Obs

(* Budget deadlines need a wall clock; util cannot depend on obs (obs
   pulls in unix), so the injection happens here, once, when socet_core
   is linked. *)
let () = Budget.set_clock Socet_obs.Clock.now_us

(* Observability: one counter per ladder rung, so a degraded run is
   legible from --stats alone. *)
let c_fallbacks = Obs.counter ~scope:"core" "resilient.fallbacks"
let c_dalg_rescues = Obs.counter ~scope:"core" "resilient.dalg_rescues"
let c_random_topoffs = Obs.counter ~scope:"core" "resilient.random_topoffs"

(* ------------------------------------------------------------------ *)
(* Per-fault ATPG ladder                                              *)
(* ------------------------------------------------------------------ *)

type atpg_rung = R_podem | R_dalg | R_random

type atpg_result = { a_outcome : Podem.outcome; a_rung : atpg_rung }

let generate_fault ?(backtrack_limit = 1000) ?scoap ?budget ?(seed = 42)
    ?(topoff_patterns = 128) nl (fault : Fault.t) =
  match Podem.generate ~backtrack_limit ?scoap ?budget nl fault with
  | (Podem.Test _ | Podem.Untestable) as outcome ->
      { a_outcome = outcome; a_rung = R_podem }
  | Podem.Aborted -> (
      (* Rung 2: the D-algorithm decides on internal lines, so it can
         crack faults whose PI-only search space defeats PODEM.  The
         escalated limit reflects that this is the expensive last
         deterministic attempt. *)
      let decision_limit = max 20_000 (8 * backtrack_limit) in
      match Dalg.generate ~decision_limit ?budget nl fault with
      | Dalg.Test vec ->
          Obs.incr c_dalg_rescues;
          { a_outcome = Podem.Test vec; a_rung = R_dalg }
      | Dalg.Untestable | Dalg.Aborted -> (
          (* Rung 3: cheap random top-off.  A Dalg [Untestable] is not
             trusted as redundancy proof (single-path sensitization gap),
             so the fault still gets the random shot. *)
          let veclen = Fsim.vector_length nl in
          let rng = Rng.create seed in
          let rec try_random k =
            if k = 0 then { a_outcome = Podem.Aborted; a_rung = R_random }
            else if
              match budget with Some b -> not (Budget.spend b) | None -> false
            then { a_outcome = Podem.Aborted; a_rung = R_random }
            else
              let vec = Rng.bitvec rng veclen in
              if Fsim.detects_comb nl vec fault then begin
                Obs.incr c_random_topoffs;
                { a_outcome = Podem.Test vec; a_rung = R_random }
              end
              else try_random (k - 1)
          in
          if veclen = 0 then { a_outcome = Podem.Aborted; a_rung = R_random }
          else try_random topoff_patterns))

(* ------------------------------------------------------------------ *)
(* Per-core scheduling ladder                                          *)
(* ------------------------------------------------------------------ *)

type rung = Transparency | Fallback_fscan_bscan

type core_plan = {
  p_inst : string;
  p_rung : rung;
  p_time : int;
  p_area : int;
}

type plan = {
  p_schedule : Schedule.t;
  p_cores : core_plan list;
  p_total_time : int;
  p_area_overhead : int;
  p_fallbacks : int;
}

let budget_exhausted budget =
  match budget with Some b -> Budget.exhausted b | None -> false

let fallback_core ?budget (ci : Soc.core_inst) =
  let open Socet_scan in
  let n_ff = List.length (Netlist.dffs ci.Soc.ci_netlist) in
  let n_inputs = Socet_rtl.Rtl_core.input_bit_count ci.Soc.ci_core in
  (* Forcing the lazy ATPG just to cost a fallback defeats a deadline
     budget (it is the expensive stage the budget cut short).  If the
     vectors were never computed and the budget is dead, bound the count
     by the collapsed fault list instead — pessimistic, which is the
     right direction for a degraded estimate. *)
  let n_vectors =
    if Lazy.is_val ci.Soc.ci_atpg || not (budget_exhausted budget) then
      Soc.atpg_vectors ci
    else List.length (Fault.collapse ci.Soc.ci_netlist)
  in
  let time = Bscan.test_time ~n_ff ~n_inputs ~n_vectors in
  let area =
    Fscan.overhead ci.Soc.ci_netlist + Bscan.ring_overhead ci.Soc.ci_core
  in
  (time, area)

let plan ?budget ?smuxes soc ~choice () =
  Error.guard ~engine:"resilient" @@ fun () ->
  Obs.with_span ~cat:"core" "resilient.plan" @@ fun () ->
  if budget_exhausted budget then
    raise
      (Error.Socet_error
         (Budget.to_error (Option.get budget) ~engine:"resilient"));
  let sched = Schedule.build ?budget soc ~choice ?smuxes () in
  let ccg = sched.Schedule.s_ccg in
  (* A core test is whole iff the router delivered a route for every input
     and every output of the core; Schedule.build drops failed routes
     silently, so the count mismatch is the failure signal. *)
  let complete (t : Schedule.core_test) =
    List.length t.Schedule.ct_justify
    >= List.length (Ccg.core_inputs ccg t.Schedule.ct_inst)
    && List.length t.Schedule.ct_observe
       >= List.length (Ccg.core_outputs ccg t.Schedule.ct_inst)
  in
  let cores =
    List.map
      (fun (t : Schedule.core_test) ->
        if complete t then
          {
            p_inst = t.Schedule.ct_inst;
            p_rung = Transparency;
            p_time = t.Schedule.ct_time;
            p_area = 0;
          }
        else begin
          Obs.incr c_fallbacks;
          let time, area =
            fallback_core ?budget (Soc.inst soc t.Schedule.ct_inst)
          in
          {
            p_inst = t.Schedule.ct_inst;
            p_rung = Fallback_fscan_bscan;
            p_time = time;
            p_area = area;
          }
        end)
      sched.Schedule.s_tests
  in
  let fallbacks =
    List.length (List.filter (fun c -> c.p_rung = Fallback_fscan_bscan) cores)
  in
  {
    p_schedule = sched;
    p_cores = cores;
    p_total_time = List.fold_left (fun acc c -> acc + c.p_time) 0 cores;
    p_area_overhead =
      sched.Schedule.s_area_overhead
      + List.fold_left (fun acc c -> acc + c.p_area) 0 cores;
    p_fallbacks = fallbacks;
  }
