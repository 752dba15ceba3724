(* The coarse-grained multicore contract, end to end: random SOCs pushed
   through every parallel engine — combinational and sequential fault
   simulation, the full PODEM run (its fault simulation is parallel)
   and the design-space sweep — must produce
   byte-identical results at 1, 2 and 4 pool domains.  "Byte-identical"
   means full detected-fault lists (order included), the exact vector
   sets, and full schedule signatures — not just coverage numbers.
   This suite is the determinism half of the CI scaling gate; the bench
   `parallel` section is the speedup half. *)

open Socet_util
open Socet_core
open Socet_cores
module Fsim = Socet_atpg.Fsim
module Fault = Socet_atpg.Fault
module Podem = Socet_atpg.Podem

let with_domains n f =
  Pool.set_size n;
  Fun.protect ~finally:(fun () -> Pool.set_size 1) f

let soc_netlists seed =
  let soc = Gen.random_soc ~hetero:(seed mod 2 = 0) (Rng.create seed) in
  List.map (fun ci -> ci.Soc.ci_netlist) soc.Soc.insts

let fault_sig fs = List.map (fun (f : Fault.t) -> (f.f_net, f.f_stuck)) fs

(* Same baseline at 1 domain, re-run at 2 and 4: any scheduling
   dependence in the merge order shows up as a signature mismatch. *)
let domain_invariant sig_of =
  let base = with_domains 1 sig_of in
  with_domains 2 sig_of = base && with_domains 4 sig_of = base

let prop_fsim_comb_scaling =
  QCheck.Test.make ~name:"run_comb byte-identical at 1/2/4 domains" ~count:4
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (seed + 5) in
      List.for_all
        (fun nl ->
          let faults = Fault.collapse nl in
          let vectors =
            List.init 70 (fun _ -> Rng.bitvec rng (Fsim.vector_length nl))
          in
          domain_invariant (fun () ->
              fault_sig (Fsim.run_comb nl ~vectors ~faults)))
        (soc_netlists seed))

let prop_fsim_seq_scaling =
  QCheck.Test.make ~name:"run_seq byte-identical at 1/2/4 domains" ~count:4
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (seed + 17) in
      List.for_all
        (fun nl ->
          let faults = Fault.collapse nl in
          let npi = List.length (Socet_netlist.Netlist.pis nl) in
          let inputs = List.init 12 (fun _ -> Rng.bitvec rng npi) in
          domain_invariant (fun () ->
              fault_sig (Fsim.run_seq nl ~inputs ~faults)))
        (soc_netlists seed))

(* The whole Podem.run result: exact vector set (content and order),
   detected/redundant/aborted partitions and the derived figures.  The
   deterministic phase is serial; the random phase and every fault-
   dropping step run on the parallel fault simulator, so everything here
   must still be domain-count-independent. *)
let podem_sig (s : Podem.stats) =
  ( List.map Bitvec.to_string s.Podem.vectors,
    fault_sig s.Podem.detected,
    fault_sig s.Podem.redundant,
    fault_sig s.Podem.aborted,
    s.Podem.total_faults,
    s.Podem.coverage,
    s.Podem.efficiency )

let prop_podem_scaling =
  QCheck.Test.make ~name:"Podem.run byte-identical at 1/2/4 domains" ~count:4
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      List.for_all
        (fun nl ->
          (* Few random patterns: leave real work for the deterministic
             phase and its per-vector fault dropping. *)
          domain_invariant (fun () ->
              podem_sig (Podem.run ~random_patterns:16 nl)))
        (soc_netlists seed))

let route_sig (r : Access.route) =
  ( r.Access.r_target,
    r.Access.r_arrival,
    r.Access.r_departures,
    r.Access.r_added_smux )

let test_sig (t : Schedule.core_test) =
  ( t.Schedule.ct_inst,
    t.Schedule.ct_vectors,
    t.Schedule.ct_period,
    t.Schedule.ct_tail,
    t.Schedule.ct_time,
    List.map route_sig t.Schedule.ct_justify,
    List.map route_sig t.Schedule.ct_observe )

let point_sig (p : Select.point) =
  let s = p.Select.pt_schedule in
  ( p.Select.pt_choice,
    p.Select.pt_area,
    p.Select.pt_time,
    ( s.Schedule.s_total_time,
      s.Schedule.s_transparency_cost,
      s.Schedule.s_smux_cost,
      s.Schedule.s_controller_cost ),
    List.map test_sig s.Schedule.s_tests,
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.Schedule.s_usage []) )

let prop_design_space_scaling =
  QCheck.Test.make
    ~name:"design_space byte-identical at 1/2/4 domains" ~count:3
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let soc = Gen.random_soc ~hetero:(seed mod 2 = 0) (Rng.create seed) in
      domain_invariant (fun () ->
          List.map point_sig (Select.design_space soc)))

let () =
  Alcotest.run "socet_scaling"
    [
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_fsim_comb_scaling;
          QCheck_alcotest.to_alcotest prop_fsim_seq_scaling;
          QCheck_alcotest.to_alcotest prop_podem_scaling;
          QCheck_alcotest.to_alcotest prop_design_space_scaling;
        ] );
    ]
