(* Dictionary-based diagnosis (Diagnose): on the fixed Systems 1-2 cores
   and on random cores, a device failing with exactly one injected fault
   must diagnose to a candidate set that contains that fault at Hamming
   distance 0 — the dictionary records the same syndrome [observe]
   reproduces. *)

open Socet_util
open Socet_cores
module Fault = Socet_atpg.Fault
module Podem = Socet_atpg.Podem
module Diagnose = Socet_atpg.Diagnose

let check = Alcotest.(check bool)

let vectors_and_faults nl =
  let stats = Podem.run ~random_patterns:32 nl in
  (stats.Podem.vectors, Fault.collapse nl)

(* Every [k]th fault, so systems with thousands of faults stay cheap. *)
let sample k xs = List.filteri (fun i _ -> i mod k = 0) xs

(* ------------------------------------------------------------------ *)
(* Fixed systems                                                       *)
(* ------------------------------------------------------------------ *)

let test_systems_dictionary () =
  List.iter
    (fun soc ->
      List.iter
        (fun ci ->
          let nl = ci.Socet_core.Soc.ci_netlist in
          let vectors, faults = vectors_and_faults nl in
          let sampled = sample 17 faults in
          (* The sampled faults are listed twice: each copy must carry
             the observed syndrome, so both are exact matches. *)
          let dict = Diagnose.build nl ~vectors ~faults:(faults @ sampled) in
          let res = Diagnose.distinguishable dict in
          check "resolution is a percentage" true (res >= 0.0 && res <= 100.0);
          List.iter
            (fun fault ->
              let observed = Diagnose.observe nl ~vectors ~fault in
              (match Diagnose.syndrome_of dict fault with
              | Some s ->
                  check "dictionary records the observed syndrome" true
                    (Bitvec.equal s observed)
              | None -> Alcotest.fail "collapsed fault missing from dictionary");
              let candidates = Diagnose.diagnose dict observed in
              Alcotest.(check int) "both copies among exact matches" 2
                (List.length
                   (List.filter
                      (fun (f, d) -> d = 0 && Fault.equal f fault)
                      candidates)))
            sampled)
        soc.Socet_core.Soc.insts)
    [ Systems.system1 (); Systems.system2 () ]

(* ------------------------------------------------------------------ *)
(* Random cores                                                        *)
(* ------------------------------------------------------------------ *)

let prop_injected_fault_is_candidate =
  QCheck.Test.make ~name:"injected fault diagnosed at distance 0" ~count:8
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nl = Socet_synth.Elaborate.core_to_netlist (Gen.random_core rng) in
      let vectors, faults = vectors_and_faults nl in
      faults = []
      || begin
           let dict = Diagnose.build nl ~vectors ~faults in
           let fault = List.nth faults (Rng.int rng (List.length faults)) in
           let observed = Diagnose.observe nl ~vectors ~fault in
           let candidates = Diagnose.diagnose dict observed in
           List.exists (fun (f, d) -> d = 0 && Fault.equal f fault) candidates
           (* Ranking invariant: best candidates first. *)
           && (let ds = List.map snd candidates in
               ds = List.sort compare ds)
         end)

let () =
  Alcotest.run "socet_diagnose"
    [
      ( "systems",
        [ Alcotest.test_case "dictionary round-trip" `Quick test_systems_dictionary ] );
      ("random", [ QCheck_alcotest.to_alcotest prop_injected_fault_is_candidate ]);
    ]
