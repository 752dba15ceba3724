(* Chaos suite: the robustness contract of the whole pipeline.

   Under ANY combination of injected failures — corrupted netlists,
   malformed RTL, tripped chaos sites, exhausted budgets — every engine
   must terminate with either a valid degraded result or a structured
   Socet_util.Error.t.  An uncaught exception anywhere is a bug; these
   properties exist to find it. *)

open Socet_util
open Socet_rtl
open Socet_core
module Netlist = Socet_netlist.Netlist
module Cell = Socet_netlist.Cell
module Validate = Socet_netlist.Validate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The CI chaos job runs this suite across a seed matrix; the offset
   varies every injected-failure stream without touching the properties
   themselves. *)
let seed_base =
  match Sys.getenv_opt "SOCET_CHAOS_SEED" with
  | Some s -> ( try 1000 * int_of_string s with _ -> 0)
  | None -> 0

(* Only these may escape an engine boundary; anything else is the bug
   this suite hunts. *)
let structured f =
  try
    ignore (f ());
    true
  with
  | Error.Socet_error _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Random netlists and their corruptions                               *)
(* ------------------------------------------------------------------ *)

let random_netlist rng =
  let nl = Netlist.create "chaosnl" in
  let n_pi = 2 + Rng.int rng 3 in
  let nets =
    ref (Array.of_list
           (List.init n_pi (fun i -> Netlist.add_pi nl (Printf.sprintf "i%d" i))))
  in
  let gates = ref [] in
  let kinds = [| Cell.Inv; Cell.Buf; Cell.And2; Cell.Or2; Cell.Xor2; Cell.Nand2 |] in
  for _ = 1 to 5 + Rng.int rng 20 do
    let kind = kinds.(Rng.int rng (Array.length kinds)) in
    let pick () = !nets.(Rng.int rng (Array.length !nets)) in
    let g = Netlist.add_gate nl kind (Array.init (Cell.arity kind) (fun _ -> pick ())) in
    gates := g :: !gates;
    nets := Array.append !nets [| g |]
  done;
  Netlist.add_po nl "o0" !nets.(Array.length !nets - 1);
  (nl, !gates)

(* The construction API rejects malformed inputs, so corruption has to go
   through the test-only backdoors: dangling fanin ids and retyped gates
   that close combinational loops. *)
let corrupt rng nl gates =
  let g = List.nth gates (Rng.int rng (List.length gates)) in
  match Rng.int rng 3 with
  | 0 -> Netlist.corrupt_fanin nl g ~pin:0 (Netlist.gate_count nl + 17 + Rng.int rng 100)
  | 1 -> Netlist.corrupt_fanin nl g ~pin:0 (-1 - Rng.int rng 5)
  | _ -> Netlist.set_kind nl g Cell.Inv [| g |] (* self-loop *)

let prop_corrupt_netlist_validates =
  QCheck.Test.make ~name:"chaos: corrupted netlists are caught, never crash"
    ~count:120
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nl, gates = random_netlist rng in
      corrupt rng nl gates;
      (* The validator reports every defect as data... *)
      (match Validate.check nl with
      | Ok () -> false
      | Error (e :: _) -> e.Error.err_engine = "netlist"
      | Error [] -> false)
      (* ...check_exn raises only the structured exception... *)
      && structured (fun () -> Validate.check_exn nl)
      (* ...and the topological-order entry point degrades to a result. *)
      && structured (fun () -> Netlist.comb_order_result nl))

let prop_corrupt_netlist_guard =
  QCheck.Test.make ~name:"chaos: Error.guard converts every corruption escape"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nl, gates = random_netlist rng in
      corrupt rng nl gates;
      match Error.guard ~engine:"netlist" (fun () -> Validate.check_exn nl) with
      | Error e -> Error.exit_code e > 0
      | Ok () -> false)

(* ------------------------------------------------------------------ *)
(* Malformed RTL                                                       *)
(* ------------------------------------------------------------------ *)

let prop_malformed_rtl_structured =
  QCheck.Test.make ~name:"chaos: malformed RTL raises structured errors only"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      structured (fun () ->
          match Rng.int rng 5 with
          | 0 ->
              let c = Rtl_core.create "dup" in
              Rtl_core.add_input c "X" 4;
              Rtl_core.add_reg c "X" (1 + Rng.int rng 8)
          | 1 ->
              let c = Rtl_core.create "w" in
              Rtl_core.add_input c "IN" (2 + Rng.int rng 7);
              Rtl_core.add_reg c "R" 1;
              Rtl_core.add_transfer c ~src:(Rtl_core.port c "IN")
                ~dst:(Rtl_core.reg c "R") ();
              Rtl_core.validate c
          | 2 ->
              let c = Rtl_core.create "dir" in
              Rtl_core.add_input c "IN" 4;
              Rtl_core.add_output c "OUT" 4;
              Rtl_core.add_transfer c ~src:(Rtl_core.port c "OUT")
                ~dst:(Rtl_core.port c "OUT") ();
              Rtl_core.validate c
          | 3 -> ignore (Rtl_core.port (Rtl_core.create "u") "nope")
          | _ -> ignore (Rtl_types.bits (1 + Rng.int rng 6) 0)))

(* ------------------------------------------------------------------ *)
(* Chaos-tripped engines                                               *)
(* ------------------------------------------------------------------ *)

let small_core () =
  let c = Rtl_core.create "chaoscore" in
  Rtl_core.add_input c "IN" 4;
  Rtl_core.add_output c "OUT" 4;
  Rtl_core.add_reg c "R1" 4;
  Rtl_core.add_reg c "R2" 4;
  let t = Rtl_core.add_transfer c in
  t ~src:(Rtl_core.port c "IN") ~dst:(Rtl_core.reg c "R1") ();
  t ~src:(Rtl_core.reg c "R1") ~dst:(Rtl_core.reg c "R2") ();
  t ~kind:Rtl_types.Direct ~src:(Rtl_core.reg c "R2") ~dst:(Rtl_core.port c "OUT") ();
  Rtl_core.validate c;
  c

let prop_chaos_engines_terminate =
  QCheck.Test.make
    ~name:"chaos: tripped sites still terminate with degraded answers" ~count:60
    QCheck.(pair (int_bound 1_000_000) (int_bound 2))
    (fun (seed, p) ->
      let prob = [| 0.3; 0.7; 1.0 |].(p) in
      Chaos.configure ~seed:(seed + seed_base) ~prob true;
      let ok =
        structured (fun () ->
            let rcg = Rcg.of_core (small_core ()) in
            ignore (Socet_scan.Hscan.insert rcg);
            ignore (Version.generate rcg);
            List.iter
              (fun input ->
                ignore
                  (Tsearch.propagate rcg ~allowed:(fun _ -> true) ~input ()))
              (Rcg.input_ids rcg))
      in
      Chaos.configure false;
      ok)

(* ------------------------------------------------------------------ *)
(* Budget exhaustion                                                   *)
(* ------------------------------------------------------------------ *)

let budget_nl = lazy (Socet_synth.Elaborate.core_to_netlist (small_core ()))

let prop_budget_atpg_terminates =
  QCheck.Test.make ~name:"chaos: starved ATPG budgets degrade, never hang"
    ~count:40
    QCheck.(int_bound 500)
    (fun fuel ->
      let nl = Lazy.force budget_nl in
      let open Socet_atpg in
      let b = Budget.create ~label:"starved" ~steps:fuel () in
      let st = Podem.run ~budget:b nl in
      (* Every fault is accounted for on some rung; coverage is sane. *)
      List.length st.Podem.detected
      + List.length st.Podem.redundant
      + List.length st.Podem.aborted
      = st.Podem.total_faults
      && st.Podem.coverage >= 0.0
      && st.Podem.coverage <= 100.0)

let prop_budget_ladder_total =
  QCheck.Test.make
    ~name:"chaos: per-fault ladder absorbs starved budgets" ~count:30
    QCheck.(int_bound 200)
    (fun fuel ->
      let nl = Lazy.force budget_nl in
      let open Socet_atpg in
      let b = Budget.create ~steps:fuel () in
      List.for_all
        (fun f ->
          let r = Resilient.generate_fault ~budget:b nl f in
          match r.Resilient.a_outcome with
          | Podem.Test _ | Podem.Untestable | Podem.Aborted -> true)
        (Fault.collapse nl))

(* A starvation-level first rung on the CPU core: 969 of its 1,188
   collapsed faults abort PODEM at backtrack limit 1.  The escalated
   retry resolves every one of them, so nothing ends [Aborted]; with the
   random top-off, 1,090 faults end with a test. *)
let test_ladder_resolves_cpu_core () =
  let open Socet_atpg in
  let nl = Socet_synth.Elaborate.core_to_netlist (Socet_cores.Cpu.core ()) in
  let faults = Fault.collapse nl in
  let tests = ref 0 in
  List.iter
    (fun f ->
      match (Resilient.generate_fault ~backtrack_limit:1 nl f).Resilient.a_outcome with
      | Podem.Test v ->
          incr tests;
          check "ladder vector detects its fault" true (Fsim.detects_comb nl v f)
      | Podem.Untestable -> ()
      | Podem.Aborted -> Alcotest.fail "a fault ended the ladder aborted")
    faults;
  check_int "collapsed faults" 1188 (List.length faults);
  check_int "faults ending with a test" 1090 !tests

(* ------------------------------------------------------------------ *)
(* Targeted: the per-core fallback rung end to end                     *)
(* ------------------------------------------------------------------ *)

let soc1 = lazy (Socet_cores.Systems.system1 ())
let all_v1 soc = List.map (fun ci -> (ci.Soc.ci_name, 1)) soc.Soc.insts

let test_access_chaos_falls_back () =
  let soc = Lazy.force soc1 in
  Chaos.configure ~seed:(3 + seed_base) ~prob:1.0 ~only:[ "core.access" ] true;
  let r = Resilient.plan soc ~choice:(all_v1 soc) () in
  Chaos.configure false;
  match r with
  | Error e -> Alcotest.failf "expected degraded plan, got %s" (Error.to_string e)
  | Ok p ->
      check_int "every core fell back" (List.length soc.Soc.insts)
        p.Resilient.p_fallbacks;
      check "fallback time positive" true (p.Resilient.p_total_time > 0);
      check "fallback area positive" true
        (List.for_all
           (fun c -> c.Resilient.p_area > 0)
           p.Resilient.p_cores)

let test_plan_recovers_after_chaos () =
  let soc = Lazy.force soc1 in
  Chaos.configure false;
  match Resilient.plan soc ~choice:(all_v1 soc) () with
  | Error e -> Alcotest.failf "clean plan failed: %s" (Error.to_string e)
  | Ok p ->
      check_int "no fallbacks" 0 p.Resilient.p_fallbacks;
      check "all transparency" true
        (List.for_all (fun c -> c.Resilient.p_rung = Resilient.Transparency)
           p.Resilient.p_cores)

let test_exhausted_budget_plan () =
  let soc = Lazy.force soc1 in
  let b = Budget.create ~label:"dead" ~steps:0 () in
  ignore (Budget.spend b);
  (* trip the sticky flag *)
  match Resilient.plan ~budget:b soc ~choice:(all_v1 soc) () with
  | Ok _ -> Alcotest.fail "expected Exhausted error from a dead budget"
  | Error e ->
      check "kind exhausted" true (e.Error.err_kind = Error.Exhausted);
      check_int "exit code 4" 4 (Error.exit_code e)

let test_chaos_report_counts () =
  Chaos.configure ~seed:0 ~prob:1.0 true;
  check "armed" true (Chaos.enabled ());
  check "site trips" true (Chaos.trip "core.tsearch.solve");
  ignore (Chaos.trip "core.access.justify");
  check "report non-empty" true (Chaos.report () <> []);
  Chaos.configure false;
  check "disarmed" false (Chaos.enabled ());
  check "off means no trips" false (Chaos.trip "core.tsearch.solve")

let test_exit_code_mapping () =
  let code k = Error.exit_code (Error.make ~kind:k ~engine:"t" "m") in
  check_int "invalid input" 3 (code Error.Invalid_input);
  check_int "validation" 3 (code Error.Validation);
  check_int "exhausted" 4 (code Error.Exhausted);
  check_int "internal" 1 (code Error.Internal)

let () =
  (* Defensive: a crashed previous case must not leak an armed harness
     into the next. *)
  Chaos.configure false;
  Alcotest.run "socet_chaos"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_corrupt_netlist_validates;
          QCheck_alcotest.to_alcotest prop_corrupt_netlist_guard;
          QCheck_alcotest.to_alcotest prop_malformed_rtl_structured;
          QCheck_alcotest.to_alcotest prop_chaos_engines_terminate;
          QCheck_alcotest.to_alcotest prop_budget_atpg_terminates;
          QCheck_alcotest.to_alcotest prop_budget_ladder_total;
        ] );
      ( "targeted",
        [
          Alcotest.test_case "access chaos -> FSCAN-BSCAN fallback" `Quick
            test_access_chaos_falls_back;
          Alcotest.test_case "plan recovers once chaos is off" `Quick
            test_plan_recovers_after_chaos;
          Alcotest.test_case "dead budget -> structured Exhausted" `Quick
            test_exhausted_budget_plan;
          Alcotest.test_case "report counts trips" `Quick test_chaos_report_counts;
          Alcotest.test_case "exit code mapping" `Quick test_exit_code_mapping;
          Alcotest.test_case "per-fault ladder resolves the CPU core" `Quick
            test_ladder_resolves_cpu_core;
        ] );
    ]
