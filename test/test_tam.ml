(* The wrapper/TAM backend: partition balance, packing validity (via the
   golden-model replay), TAT consistency, and fleet determinism across
   domain counts. *)

open Socet_util
open Socet_tam

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_domains n f =
  Pool.set_size n;
  Fun.protect ~finally:(fun () -> Pool.set_size 1) f

(* ------------------------------------------------------------------ *)
(* Wrapper partitioning                                                *)
(* ------------------------------------------------------------------ *)

let arb_partition_input =
  QCheck.(
    quad (int_bound 40) (list_of_size Gen.(0 -- 6) (int_bound 30)) (int_bound 40)
      (int_range 1 24))

let prop_partition_balanced =
  QCheck.Test.make ~name:"tam: wrapper chains balanced within 1 cell" ~count:300
    arb_partition_input
    (fun (inputs, internal, outputs, width) ->
      let chains = Wrapper.partition ~inputs ~internal ~outputs ~width in
      let sizes =
        List.map
          (fun c -> c.Wrapper.wc_inputs + c.Wrapper.wc_internal + c.Wrapper.wc_outputs)
          chains
      in
      match sizes with
      | [] -> false
      | s :: rest ->
          let lo = List.fold_left min s rest and hi = List.fold_left max s rest in
          hi - lo <= 1)

let prop_partition_conserves =
  QCheck.Test.make ~name:"tam: partition loses no cells" ~count:300
    arb_partition_input
    (fun (inputs, internal, outputs, width) ->
      let chains = Wrapper.partition ~inputs ~internal ~outputs ~width in
      List.fold_left (fun a c -> a + c.Wrapper.wc_inputs) 0 chains = inputs
      && List.fold_left (fun a c -> a + c.Wrapper.wc_internal) 0 chains
         = List.fold_left ( + ) 0 internal
      && List.fold_left (fun a c -> a + c.Wrapper.wc_outputs) 0 chains = outputs
      && List.length chains
         = min width (max 1 (inputs + List.fold_left ( + ) 0 internal + outputs)))

(* ------------------------------------------------------------------ *)
(* Schedule validity on random SOCs                                    *)
(* ------------------------------------------------------------------ *)

let soc_of_seed ?(hetero = true) seed =
  Socet_cores.Gen.random_soc ~hetero (Rng.create seed)

let prop_schedule_replays_clean =
  QCheck.Test.make
    ~name:"tam: packed schedules pass the golden-model replay" ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_range 2 24))
    (fun (seed, width) ->
      let soc = soc_of_seed seed in
      let sched = Schedule.build ~width soc in
      Replay.check soc sched = [])

let prop_tat_is_max_top =
  QCheck.Test.make ~name:"tam: TAT equals the tallest rectangle top" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let soc = soc_of_seed seed in
      let sched = Schedule.build soc in
      let top =
        List.fold_left
          (fun a p -> max a (p.Schedule.pl_start + p.Schedule.pl_time))
          0 sched.Schedule.t_placements
      in
      sched.Schedule.t_total_time = top)

let prop_width_bound =
  QCheck.Test.make ~name:"tam: no band leaves the TAM" ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_range 1 12))
    (fun (seed, width) ->
      let soc = soc_of_seed seed in
      let sched = Schedule.build ~width soc in
      List.for_all
        (fun p ->
          p.Schedule.pl_wire >= 0
          && p.Schedule.pl_width >= 1
          && p.Schedule.pl_wire + p.Schedule.pl_width <= width)
        sched.Schedule.t_placements)

(* A budget only limits the improvement pass — the schedule must still
   replay clean, and zero fuel must reproduce the plain BFD packing. *)
let test_budget_only_limits_improvement () =
  let soc = soc_of_seed 42 in
  let starved = Schedule.build ~budget:(Budget.create ~steps:0 ()) soc in
  check_int "no repacks on zero fuel" 0 starved.Schedule.t_improve_steps;
  check "starved schedule still valid" true (Replay.check soc starved = []);
  let free = Schedule.build soc in
  check "unbudgeted schedule valid" true (Replay.check soc free = []);
  check "improvement never hurts" true
    (free.Schedule.t_total_time <= starved.Schedule.t_total_time)

(* ------------------------------------------------------------------ *)
(* The two backends on the paper's systems                             *)
(* ------------------------------------------------------------------ *)

let paper_systems () =
  [
    ("system1", Socet_cores.Systems.system1 ());
    ("system2", Socet_cores.Systems.system2 ());
  ]

let test_backends_on_paper_systems () =
  List.iter
    (fun (name, soc) ->
      List.iter
        (fun (backend, result) ->
          match result with
          | Error e -> Alcotest.failf "%s/%s: %s" name backend (Error.to_string e)
          | Ok p ->
              check (name ^ "/" ^ backend ^ " rows") true
                (List.length p.Backend.p_rows = List.length soc.Socet_core.Soc.insts);
              check (name ^ "/" ^ backend ^ " time positive") true
                (p.Backend.p_total_time > 0);
              check (name ^ "/" ^ backend ^ " area positive") true
                (p.Backend.p_area_overhead > 0))
        [
          ("ccg", Backend.Ccg_backend.plan soc);
          ("tam", Backend.Tam_backend.plan soc);
        ])
    (paper_systems ())

(* [socet tam SYSTEM --width W] prints the backend's plan, so at every
   width the plan must carry exactly the schedule [Schedule.build] packs.
   A plan is returned only after its replay came back clean. *)
let test_tam_plan_is_the_packed_schedule () =
  List.iter
    (fun (name, soc) ->
      List.iter
        (fun width ->
          let what = Printf.sprintf "%s width %d" name width in
          match Backend.Tam_backend.plan ~width soc with
          | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)
          | Ok { Backend.p_detail = Backend.D_tam s; _ } ->
              check (what ^ " same schedule") true (s = Schedule.build ~width soc)
          | Ok _ -> Alcotest.failf "%s: not a TAM schedule" what)
        [ 4; 8; 16; 32 ])
    (paper_systems ())

let test_tam_width_below_one_rejected () =
  match Backend.Tam_backend.plan ~width:0 (Socet_cores.Systems.system1 ()) with
  | Ok _ -> Alcotest.fail "width 0 should not plan"
  | Error e -> check_int "invalid-input exit" 3 (Error.exit_code e)

(* ------------------------------------------------------------------ *)
(* Fleet determinism                                                   *)
(* ------------------------------------------------------------------ *)

let fleet_fingerprint entries =
  List.map
    (fun e ->
      let show = function
        | Ok (o : Fleet.outcome) -> Printf.sprintf "%d/%d" o.Fleet.o_time o.Fleet.o_area
        | Error m -> "err:" ^ m
      in
      Printf.sprintf "%d %s %d %s %s %d" e.Fleet.e_index e.Fleet.e_soc
        e.Fleet.e_cores (show e.Fleet.e_ccg) (show e.Fleet.e_tam)
        e.Fleet.e_issues)
    entries

let test_fleet_deterministic_across_jobs () =
  let run jobs =
    with_domains jobs @@ fun () -> Fleet.run ~seed:7 ~count:12 ()
  in
  (* Most parallel first: the 4-domain run fills the per-core ATPG table
     with concurrent misses, the later runs read it. *)
  let f4 = fleet_fingerprint (run 4) in
  let f2 = fleet_fingerprint (run 2) in
  let f1 = fleet_fingerprint (run 1) in
  Alcotest.(check (list string)) "jobs 1 = jobs 2" f1 f2;
  Alcotest.(check (list string)) "jobs 1 = jobs 4" f1 f4

(* A fleet entry's TAM column is exactly [Tam_backend.plan] on the SOC
   its seed regenerates. *)
let test_fleet_entry_matches_backend () =
  let seed = 5 and width = 8 in
  let entries = Fleet.run ~width ~seed ~count:3 () in
  List.iter
    (fun e ->
      let soc =
        Socet_cores.Gen.random_soc ~hetero:true
          (Rng.create ((seed * 1_000_003) + e.Fleet.e_index))
      in
      Alcotest.(check string) "same SOC" e.Fleet.e_soc soc.Socet_core.Soc.soc_name;
      match (e.Fleet.e_tam, Backend.Tam_backend.plan ~width soc) with
      | Ok o, Ok p ->
          check_int "TAT" p.Backend.p_total_time o.Fleet.o_time;
          check_int "area" p.Backend.p_area_overhead o.Fleet.o_area
      | _ -> Alcotest.failf "entry %d: a TAM plan failed" e.Fleet.e_index)
    entries

let test_fleet_clean () =
  let entries = Fleet.run ~seed:11 ~count:16 () in
  let s = Fleet.summarize entries in
  check_int "all entries" 16 s.Fleet.s_count;
  check_int "no backend failures" 0 s.Fleet.s_failures;
  check_int "no replay issues" 0 s.Fleet.s_issues

let () =
  Alcotest.run "socet_tam"
    [
      ( "wrapper",
        [
          QCheck_alcotest.to_alcotest prop_partition_balanced;
          QCheck_alcotest.to_alcotest prop_partition_conserves;
        ] );
      ( "schedule",
        [
          QCheck_alcotest.to_alcotest prop_schedule_replays_clean;
          QCheck_alcotest.to_alcotest prop_tat_is_max_top;
          QCheck_alcotest.to_alcotest prop_width_bound;
          Alcotest.test_case "budget starves only the improver" `Quick
            test_budget_only_limits_improvement;
        ] );
      ( "backend",
        [
          Alcotest.test_case "both backends on systems 1-2" `Slow
            test_backends_on_paper_systems;
          Alcotest.test_case "tam plan is the packed schedule at widths 4-32"
            `Slow test_tam_plan_is_the_packed_schedule;
          Alcotest.test_case "tam width below 1 is invalid input" `Quick
            test_tam_width_below_one_rejected;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "bit-identical at jobs 1/2/4" `Slow
            test_fleet_deterministic_across_jobs;
          Alcotest.test_case "clean run, no failures or issues" `Slow
            test_fleet_clean;
          Alcotest.test_case "entry TAM outcome is the backend's plan" `Slow
            test_fleet_entry_matches_backend;
        ] );
    ]
