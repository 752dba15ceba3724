(* The two chip-level test flows: CCG/transparency vs wrapper/TAM
   (backend.mli). *)

module Soc = Socet_core.Soc
module Resilient = Socet_core.Resilient
module Obs = Socet_obs.Obs
module Err = Socet_util.Error

type core_row = { r_inst : string; r_mech : string; r_time : int; r_area : int }
type detail = D_ccg of Socet_core.Schedule.t | D_tam of Schedule.t

type plan = {
  p_rows : core_row list;
  p_total_time : int;
  p_area_overhead : int;
  p_degraded : int;
  p_detail : detail;
}

let c_ccg_plans = Obs.counter ~scope:"tam" "backend.ccg_plans"
let c_tam_plans = Obs.counter ~scope:"tam" "backend.tam_plans"

module Ccg_backend = struct
  let plan ?budget soc =
    Obs.incr c_ccg_plans;
    Obs.with_span ~cat:"tam" "backend.ccg.plan" @@ fun () ->
    let choice = List.map (fun ci -> (ci.Soc.ci_name, 1)) soc.Soc.insts in
    Result.map
      (fun (p : Resilient.plan) ->
        {
          p_rows =
            List.map
              (fun (cp : Resilient.core_plan) ->
                {
                  r_inst = cp.Resilient.p_inst;
                  r_mech =
                    (match cp.Resilient.p_rung with
                    | Resilient.Transparency -> "transparency"
                    | Resilient.Fallback_fscan_bscan -> "FSCAN-BSCAN fallback");
                  r_time = cp.Resilient.p_time;
                  r_area = cp.Resilient.p_area;
                })
              p.Resilient.p_cores;
          p_total_time = p.Resilient.p_total_time;
          p_area_overhead = p.Resilient.p_area_overhead;
          p_degraded = p.Resilient.p_fallbacks;
          p_detail = D_ccg p.Resilient.p_schedule;
        })
      (Resilient.plan ?budget soc ~choice ())
end

module Tam_backend = struct
  let plan ?budget ?width soc =
    Obs.incr c_tam_plans;
    Obs.with_span ~cat:"tam" "backend.tam.plan" @@ fun () ->
    let ( let* ) = Result.bind in
    let* sched =
      Err.guard ~engine:"tam" (fun () -> Schedule.build ?budget ?width soc)
    in
    match Replay.check soc sched with
    | issue :: _ ->
        Err.error ~kind:Err.Internal ~engine:"tam"
          ~ctx:[ ("soc", soc.Soc.soc_name) ]
          (Printf.sprintf "invalid TAM schedule: %s" (Replay.pp_issue issue))
    | [] ->
        Ok
          {
            p_rows =
              List.map
                (fun (p : Schedule.placement) ->
                  {
                    r_inst = p.Schedule.pl_inst;
                    r_mech = Printf.sprintf "wrapper %d lane(s)" p.Schedule.pl_width;
                    r_time = p.Schedule.pl_time;
                    r_area = p.Schedule.pl_wrapper.Wrapper.w_area;
                  })
                sched.Schedule.t_placements;
            p_total_time = sched.Schedule.t_total_time;
            p_area_overhead = sched.Schedule.t_area_overhead;
            p_degraded = 0;
            p_detail = D_tam sched;
          }
end

let render_detail = function
  | D_ccg s -> Socet_core.Schedule.render s
  | D_tam s -> Schedule.render s
