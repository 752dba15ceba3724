open Socet_scan
module Digraph = Socet_graph.Digraph
module Obs = Socet_obs.Obs

let c_builds = Obs.counter ~scope:"core" "schedule.builds"

(* [full_builds] counts whole [build] calls (fresh CCG + every core
   re-routed); [builds] counts assembled schedules however their parts
   were obtained.  The gap between the two is what the Select route memo
   saves the optimizer. *)
let c_full_builds = Obs.counter ~scope:"core" "schedule.full_builds"

type core_test = {
  ct_inst : string;
  ct_vectors : int;
  ct_period : int;
  ct_tail : int;
  ct_time : int;
  ct_justify : Access.route list;
  ct_observe : Access.route list;
}

type t = {
  s_ccg : Ccg.t;
  s_tests : core_test list;
  s_total_time : int;
  s_transparency_cost : int;
  s_smux_cost : int;
  s_controller_cost : int;
  s_area_overhead : int;
  s_usage : (string * int * int, int) Hashtbl.t;
}

type smux_request = { sm_inst : string; sm_port : string; sm_dir : [ `In | `Out ] }

let justify_routes ccg name =
  (* Route the slowest input first (the paper justifies DISPLAY's A
     before D): probe each input on an empty calendar, then route in
     decreasing base-latency order against the shared calendar. *)
  let inputs = Ccg.core_inputs ccg name in
  let base_latency input =
    match
      Access.justify_input ~allow_smux:false ccg (Access.fresh_bookings ())
        ~input
    with
    | Some r -> r.Access.r_arrival
    | None -> 0
  in
  let inputs =
    List.map (fun i -> (base_latency i, i)) inputs
    |> List.sort (fun (a, _) (b, _) -> compare b a)
    |> List.map snd
  in
  let bookings = Access.fresh_bookings () in
  List.filter_map
    (fun input -> Access.justify_input ccg bookings ~input)
    inputs

let observe_routes ccg name =
  let bookings = Access.fresh_bookings () in
  List.filter_map
    (fun output -> Access.observe_output ccg bookings ~output)
    (Ccg.core_outputs ccg name)

let core_test_of_routes ci ~justify ~observe =
  let period =
    max 1 (List.fold_left (fun acc r -> max acc r.Access.r_arrival) 0 justify)
  in
  let observe_makespan =
    List.fold_left (fun acc r -> max acc r.Access.r_arrival) 0 observe
  in
  let tail = max 0 (ci.Soc.ci_hscan.Hscan.depth - 1) + observe_makespan in
  let vectors = Soc.hscan_vectors ci in
  {
    ct_inst = ci.Soc.ci_name;
    ct_vectors = vectors;
    ct_period = period;
    ct_tail = tail;
    ct_time = (vectors * period) + tail;
    ct_justify = justify;
    ct_observe = observe;
  }

let build_core_test ?budget ccg ci =
  let name = ci.Soc.ci_name in
  if
    match budget with
    | Some b -> Socet_util.Budget.exhausted b
    | None -> false
  then
    (* Fuel/deadline gone: stub the remaining cores with no routes
       (and skip their ATPG) — the resilient planner reads the
       missing routes as a scheduling failure and ladders the core
       down to its FSCAN-BSCAN fallback. *)
    {
      ct_inst = name;
      ct_vectors = 0;
      ct_period = 0;
      ct_tail = 0;
      ct_time = 0;
      ct_justify = [];
      ct_observe = [];
    }
  else
    let justify = justify_routes ccg name in
    let observe = observe_routes ccg name in
    core_test_of_routes ci ~justify ~observe

(* Turn explicitly requested system-level test muxes into real CCG edges
   so routing can use them; returns their total area cost. *)
let install_smuxes soc ccg smuxes =
  List.fold_left
    (fun acc { sm_inst; sm_port; sm_dir } ->
      let width =
        (Socet_rtl.Rtl_core.find_port (Soc.inst soc sm_inst).Soc.ci_core sm_port)
          .Socet_rtl.Rtl_core.p_width
      in
      (match sm_dir with
      | `In ->
          let pi = Ccg.node_id ccg (Ccg.N_pi (fst (List.hd soc.Soc.soc_pis))) in
          let dst = Ccg.node_id ccg (Ccg.N_cin (sm_inst, sm_port)) in
          ignore (Ccg.add_smux ccg ~src:pi ~dst ~width)
      | `Out ->
          let po = Ccg.node_id ccg (Ccg.N_po (fst (List.hd soc.Soc.soc_pos))) in
          let src = Ccg.node_id ccg (Ccg.N_cout (sm_inst, sm_port)) in
          ignore (Ccg.add_smux ccg ~src ~dst:po ~width));
      acc + Ccg.smux_cost ~width)
    0 smuxes

let assemble soc ~choice ?(n_requested = 0) ?(requested_cost = 0) ccg tests =
  Obs.incr c_builds;
  let all_routes =
    List.concat_map (fun t -> t.ct_justify @ t.ct_observe) tests
  in
  Access.record_committed_fallbacks all_routes;
  let forced_cost =
    List.fold_left
      (fun acc (r : Access.route) ->
        match r.Access.r_added_smux with
        | Some (_, _, w) -> acc + Ccg.smux_cost ~width:w
        | None -> acc)
      0 all_routes
  in
  let transparency_cost =
    List.fold_left
      (fun acc ci ->
        let k = Option.value ~default:1 (List.assoc_opt ci.Soc.ci_name choice) in
        acc + (Soc.version_of ci k).Version.v_overhead)
      0 soc.Soc.insts
  in
  let n_smux =
    n_requested
    + List.length
        (List.filter
           (fun (r : Access.route) -> r.Access.r_added_smux <> None)
           all_routes)
  in
  let controller_cost = Controller.cost soc ~choice ~n_smux in
  let smux_cost = requested_cost + forced_cost in
  {
    s_ccg = ccg;
    s_tests = tests;
    s_total_time = List.fold_left (fun acc t -> acc + t.ct_time) 0 tests;
    s_transparency_cost = transparency_cost;
    s_smux_cost = smux_cost;
    s_controller_cost = controller_cost;
    s_area_overhead = transparency_cost + smux_cost + controller_cost;
    s_usage = Access.edge_usage all_routes;
  }

let build ?budget soc ~choice ?(smuxes = []) () =
  Obs.with_span ~cat:"core" "schedule.build" @@ fun () ->
  Obs.incr c_full_builds;
  let ccg = Ccg.build soc ~choice in
  let requested_cost = install_smuxes soc ccg smuxes in
  let tests = List.map (build_core_test ?budget ccg) soc.Soc.insts in
  assemble soc ~choice ~n_requested:(List.length smuxes) ~requested_cost ccg
    tests

let render s =
  Socet_util.Ascii_table.render
    ~header:[ "core"; "vectors"; "cycles/vec"; "tail"; "test time" ]
    (List.map
       (fun t ->
         [
           t.ct_inst;
           string_of_int t.ct_vectors;
           string_of_int t.ct_period;
           string_of_int t.ct_tail;
           string_of_int t.ct_time;
         ])
       s.s_tests)
  ^ Printf.sprintf "sequential total: %d cycles\n" s.s_total_time

let involved_cores t =
  let insts =
    List.concat_map
      (fun (r : Access.route) ->
        List.filter_map
          (fun (e : Ccg.cedge Digraph.edge) ->
            match e.label with
            | Ccg.Transp { inst; _ } -> Some inst
            | Ccg.Wire | Ccg.Smux _ -> None)
          r.Access.r_edges)
      (t.ct_justify @ t.ct_observe)
  in
  List.sort_uniq compare (t.ct_inst :: insts)

let parallel_makespan sched =
  let tests =
    List.sort (fun a b -> compare b.ct_time a.ct_time) sched.s_tests
  in
  let placed = ref [] in
  (* (test, start, finish) *)
  List.iter
    (fun t ->
      let mine = involved_cores t in
      let conflicts (t', _, _) =
        List.exists (fun c -> List.mem c (involved_cores t')) mine
      in
      let start =
        List.fold_left
          (fun acc ((_, _, fin) as p) -> if conflicts p then max acc fin else acc)
          0 !placed
      in
      placed := (t, start, start + t.ct_time) :: !placed)
    tests;
  let makespan = List.fold_left (fun acc (_, _, fin) -> max acc fin) 0 !placed in
  (makespan, List.map (fun (t, start, _) -> (t.ct_inst, start)) (List.rev !placed))
