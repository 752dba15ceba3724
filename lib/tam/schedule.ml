(* Wrapper/TAM co-optimization: best-fit-decreasing rectangle packing
   plus a budget-fuelled iterative-improvement pass (see schedule.mli). *)

module Soc = Socet_core.Soc
module Obs = Socet_obs.Obs
module Budget = Socet_util.Budget
module Interval_set = Socet_util.Interval_set
module Ascii_table = Socet_util.Ascii_table

type placement = {
  pl_inst : string;
  pl_width : int;
  pl_wire : int;
  pl_start : int;
  pl_time : int;
  pl_vectors : int;
  pl_wrapper : Wrapper.t;
}

type t = {
  t_soc : string;
  t_tam_width : int;
  t_placements : placement list;
  t_total_time : int;
  t_wrapper_cost : int;
  t_tam_cost : int;
  t_controller_cost : int;
  t_area_overhead : int;
  t_improve_steps : int;
  t_improve_gain : int;
}

let default_width = 16
let tam_wire_area = 4
let controller_base = 12
let controller_per_core = 2

let c_packs = Obs.counter ~scope:"tam" "schedule.packs"
let c_improve_steps = Obs.counter ~scope:"tam" "schedule.improve_steps"
let c_improve_accepts = Obs.counter ~scope:"tam" "schedule.improve_accepts"

(* ------------------------------------------------------------------ *)
(* Packing                                                             *)
(* ------------------------------------------------------------------ *)

(* One rectangle to place: a core at its currently-allocated width. *)
type rect = { rc_inst : string; rc_vectors : int; rc_cand : Alloc.candidate }

(* Earliest cycle at which the wire band [s, s+w) is free for [len]
   consecutive cycles: iterate the per-wire first fits to a fixpoint
   (each pass only moves the start forward, so it terminates). *)
let band_fit wires ~s ~w ~len =
  let t = ref 0 and stable = ref false in
  while not !stable do
    stable := true;
    for k = s to s + w - 1 do
      let t' = Interval_set.first_fit wires.(k) ~earliest:!t ~len in
      if t' > !t then begin
        t := t';
        stable := false
      end
    done
  done;
  !t

(* Best-fit decreasing: tallest rectangle first (ties: wider first, then
   instance name), each placed at the earliest feasible start over all
   contiguous wire bands, lowest band on start ties. *)
let pack ~tam_width rects =
  Obs.incr c_packs;
  let order =
    List.sort
      (fun a b ->
        match compare b.rc_cand.Alloc.cd_time a.rc_cand.Alloc.cd_time with
        | 0 -> (
            match compare b.rc_cand.Alloc.cd_width a.rc_cand.Alloc.cd_width with
            | 0 -> compare a.rc_inst b.rc_inst
            | c -> c)
        | c -> c)
      rects
  in
  let wires = Array.make tam_width Interval_set.empty in
  let placements =
    List.map
      (fun r ->
        let w = r.rc_cand.Alloc.cd_width in
        let h = r.rc_cand.Alloc.cd_time in
        let len = max 1 h in
        let best = ref None in
        for s = 0 to tam_width - w do
          let t = band_fit wires ~s ~w ~len in
          match !best with
          | Some (bt, _) when bt <= t -> ()
          | _ -> best := Some (t, s)
        done;
        let start, wire =
          match !best with
          | Some (t, s) -> (t, s)
          | None ->
              (* w > tam_width cannot happen: Alloc caps candidate widths. *)
              invalid_arg "Tam.Schedule.pack: rectangle wider than the TAM"
        in
        for k = wire to wire + w - 1 do
          wires.(k) <- Interval_set.add wires.(k) ~lo:start ~hi:(start + len)
        done;
        {
          pl_inst = r.rc_inst;
          pl_width = w;
          pl_wire = wire;
          pl_start = start;
          pl_time = h;
          pl_vectors = r.rc_vectors;
          pl_wrapper = r.rc_cand.Alloc.cd_wrapper;
        })
      order
  in
  let makespan =
    List.fold_left (fun a p -> max a (p.pl_start + p.pl_time)) 0 placements
  in
  (placements, makespan)

(* ------------------------------------------------------------------ *)
(* Iterative improvement                                               *)
(* ------------------------------------------------------------------ *)

let area_of_widths rects =
  List.fold_left
    (fun a r -> a + r.rc_cand.Alloc.cd_wrapper.Wrapper.w_area)
    0 rects

(* While fuel lasts: re-allocate the core that finishes last to each of
   its alternative widths, re-pack, and keep the best strictly-smaller
   makespan (ties broken toward cheaper wrappers).  Every accepted move
   strictly shrinks the makespan, so the loop terminates even without a
   budget. *)
let improve ?budget ~tam_width ~cands rects placements makespan =
  let afford cost =
    match budget with
    | None -> true
    | Some b -> Budget.affordable ~cost b && Budget.spend ~cost b
  in
  let steps = ref 0 in
  let rec go rects placements makespan =
    let critical =
      List.fold_left
        (fun acc p ->
          match acc with
          | Some c
            when c.pl_start + c.pl_time > p.pl_start + p.pl_time
                 || (c.pl_start + c.pl_time = p.pl_start + p.pl_time
                    && c.pl_inst <= p.pl_inst) ->
              acc
          | _ -> Some p)
        None placements
    in
    match critical with
    | None -> (rects, placements, makespan)
    | Some crit ->
        let alts =
          List.filter
            (fun cd -> cd.Alloc.cd_width <> crit.pl_width)
            (List.assoc crit.pl_inst cands)
        in
        let cost = List.length rects in
        let trial cd =
          if not (afford cost) then None
          else begin
            incr steps;
            Obs.incr c_improve_steps;
            let rects' =
              List.map
                (fun r ->
                  if r.rc_inst = crit.pl_inst then { r with rc_cand = cd } else r)
                rects
            in
            let placements', makespan' = pack ~tam_width rects' in
            Some (rects', placements', makespan')
          end
        in
        let better (m1, a1) (m0, a0) = m1 < m0 || (m1 = m0 && a1 < a0) in
        let best =
          List.fold_left
            (fun acc cd ->
              match trial cd with
              | None -> acc
              | Some ((rects', _, m') as t) ->
                  let score = (m', area_of_widths rects') in
                  (match acc with
                  | Some (_, score0) when not (better score score0) -> acc
                  | _ -> Some (t, score)))
            None alts
        in
        (match best with
        | Some ((rects', placements', makespan'), score)
          when better score (makespan, area_of_widths rects) ->
            Obs.incr c_improve_accepts;
            if makespan' < makespan then go rects' placements' makespan'
            else (rects', placements', makespan')
        | _ -> (rects, placements, makespan))
  in
  let rects, placements, final = go rects placements makespan in
  (rects, placements, final, !steps)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let build ?budget ?(width = default_width) soc =
  if width < 1 then invalid_arg "Tam.Schedule.build: width < 1";
  Obs.with_span ~cat:"tam" "schedule.build" @@ fun () ->
  let cands =
    List.map
      (fun ci -> (ci.Soc.ci_name, Alloc.candidates ci ~max_width:width))
      soc.Soc.insts
  in
  let rects =
    List.map
      (fun ci ->
        {
          rc_inst = ci.Soc.ci_name;
          rc_vectors = Soc.atpg_vectors ci;
          rc_cand = Alloc.fastest (List.assoc ci.Soc.ci_name cands);
        })
      soc.Soc.insts
  in
  let placements, makespan = pack ~tam_width:width rects in
  let rects, placements, final, steps =
    improve ?budget ~tam_width:width ~cands rects placements makespan
  in
  (* Report in SOC core order, whatever order the packer placed them. *)
  let placements =
    List.map
      (fun ci ->
        List.find (fun p -> p.pl_inst = ci.Soc.ci_name) placements)
      soc.Soc.insts
  in
  let wrapper_cost = area_of_widths rects in
  let tam_cost = tam_wire_area * width in
  let controller_cost =
    controller_base + (controller_per_core * List.length placements)
  in
  {
    t_soc = soc.Soc.soc_name;
    t_tam_width = width;
    t_placements = placements;
    t_total_time = final;
    t_wrapper_cost = wrapper_cost;
    t_tam_cost = tam_cost;
    t_controller_cost = controller_cost;
    t_area_overhead = wrapper_cost + tam_cost + controller_cost;
    t_improve_steps = steps;
    t_improve_gain = makespan - final;
  }

let render t =
  let rows =
    List.map
      (fun p ->
        [
          p.pl_inst;
          string_of_int p.pl_vectors;
          string_of_int p.pl_width;
          Printf.sprintf "%d-%d" p.pl_wire (p.pl_wire + p.pl_width - 1);
          string_of_int p.pl_start;
          string_of_int p.pl_time;
          string_of_int p.pl_wrapper.Wrapper.w_area;
        ])
      t.t_placements
  in
  Ascii_table.render
    ~header:[ "core"; "vectors"; "lanes"; "wires"; "start"; "test time"; "wrapper" ]
    rows
  ^ Printf.sprintf
      "TAM width %d: TAT %d cycles, chip DFT %d cells (wrappers %d + bus %d + \
       controller %d)\n\
       improvement pass: %d repack(s), %d cycle(s) saved\n"
      t.t_tam_width t.t_total_time t.t_area_overhead t.t_wrapper_cost t.t_tam_cost
      t.t_controller_cost t.t_improve_steps t.t_improve_gain
