open Socet_util
open Socet_netlist
open Socet_atpg
module Obs = Socet_obs.Obs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* y = a AND b, plus a flip-flop pipeline stage on a second output. *)
let small_circuit () =
  let nl = Netlist.create "small" in
  let a = Netlist.add_pi nl "a" in
  let b = Netlist.add_pi nl "b" in
  let g = Netlist.add_gate nl Cell.And2 [| a; b |] in
  Netlist.add_po nl "y" g;
  let ff = Netlist.add_gate nl Cell.Dff [| g |] in
  Netlist.add_po nl "z" ff;
  nl

(* A circuit with a classic redundant fault: y = (a AND b) OR (a AND NOT b)
   simplifies to a, and the OR output stuck-at-0 is testable, but a
   carefully constructed consensus term creates redundancy.  Simpler: tie a
   gate input to constant — faults on the constant side are untestable. *)
let redundant_circuit () =
  let nl = Netlist.create "red" in
  let a = Netlist.add_pi nl "a" in
  let one = Netlist.add_gate nl Cell.Const1 [||] in
  let buf = Netlist.add_gate nl Cell.Buf [| one |] in
  (* y = a AND 1 = a: buf stuck-at-1 is undetectable. *)
  let g = Netlist.add_gate nl Cell.And2 [| a; buf |] in
  Netlist.add_po nl "y" g;
  (nl, buf)

(* ------------------------------------------------------------------ *)
(* Fault                                                              *)
(* ------------------------------------------------------------------ *)

let test_fault_universe () =
  let nl = small_circuit () in
  (* 4 faultable nets (a, b, and, ff): 8 faults. *)
  check_int "two faults per net" 8 (List.length (Fault.all nl));
  let nl2 = Netlist.create "c" in
  let _ = Netlist.add_gate nl2 Cell.Const0 [||] in
  check_int "constants carry no faults" 0 (List.length (Fault.all nl2))

let test_fault_collapse () =
  let nl = Netlist.create "c" in
  let a = Netlist.add_pi nl "a" in
  let b1 = Netlist.add_gate nl Cell.Buf [| a |] in
  Netlist.add_po nl "y" b1;
  (* a has a single fanout (the buffer): the buffer's faults collapse away. *)
  let collapsed = Fault.collapse nl in
  check_int "buffer faults collapsed" 2 (List.length collapsed);
  check "remaining faults on the PI" true
    (List.for_all (fun (f : Fault.t) -> f.f_net = a) collapsed)

let test_fault_name () =
  let nl = small_circuit () in
  let f : Fault.t = { f_net = Netlist.find_pi nl "a"; f_stuck = true } in
  Alcotest.(check string) "fault name" "a/sa1" (Fault.name nl f)

(* ------------------------------------------------------------------ *)
(* Fsim (combinational model)                                         *)
(* ------------------------------------------------------------------ *)

let vec_of_string = Bitvec.of_string

let test_fsim_detects_and_sa0 () =
  let nl = small_circuit () in
  let g = Netlist.find_po nl "y" in
  (* vector layout: a, b, ff.  a=1 b=1 sensitises AND sa0. *)
  let v = vec_of_string "011" in
  (* bit0 = a, bit1 = b, bit2 = ff *)
  check "a=1,b=1 detects and/sa0" true
    (Fsim.detects_comb nl v { f_net = g; f_stuck = false });
  check "a=1,b=1 does not detect and/sa1" false
    (Fsim.detects_comb nl v { f_net = g; f_stuck = true });
  let v0 = vec_of_string "000" in
  check "a=0,b=0 detects and/sa1" true
    (Fsim.detects_comb nl v0 { f_net = g; f_stuck = true })

let test_fsim_pseudo_output_observation () =
  (* A fault observable only at a flip-flop D input must count as detected
     in the full-scan model. *)
  let nl = Netlist.create "hidden" in
  let a = Netlist.add_pi nl "a" in
  let inv = Netlist.add_gate nl Cell.Inv [| a |] in
  let ff = Netlist.add_gate nl Cell.Dff [| inv |] in
  (* No PO at all; ff unused downstream. *)
  ignore ff;
  let v = vec_of_string "10" in
  (* bit0 = a = 0...  layout: a then ff *)
  check "detected at scan capture" true
    (Fsim.detects_comb nl v { f_net = inv; f_stuck = false })

let test_fsim_fault_dropping_counts () =
  let nl = small_circuit () in
  let faults = Fault.all nl in
  let vectors =
    [
      vec_of_string "011" (* a=1 b=1 ff=0 *);
      vec_of_string "000";
      vec_of_string "001";
      vec_of_string "010";
      vec_of_string "100" (* ff=1: exercises ff/sa0 *);
    ]
  in
  let det = Fsim.run_comb nl ~vectors ~faults in
  (* Every fault in this tiny circuit is testable and this set is complete. *)
  check_int "all faults detected" (List.length faults) (List.length det)

let test_fsim_seq_needs_time () =
  (* Fault on logic feeding a flip-flop is visible at the PO only one cycle
     later: sequential fault sim must find it with a 2-cycle sequence. *)
  let nl = Netlist.create "seq" in
  let a = Netlist.add_pi nl "a" in
  let inv = Netlist.add_gate nl Cell.Inv [| a |] in
  let ff = Netlist.add_gate nl Cell.Dff [| inv |] in
  Netlist.add_po nl "q" ff;
  let fault : Fault.t = { f_net = inv; f_stuck = false } in
  let det1 = Fsim.run_seq nl ~inputs:[ vec_of_string "0" ] ~faults:[ fault ] in
  check "one cycle is not enough" true (det1 = []);
  let det2 =
    Fsim.run_seq nl ~inputs:[ vec_of_string "0"; vec_of_string "0" ] ~faults:[ fault ]
  in
  check "two cycles detect it" true (det2 <> [])

let test_fsim_seq_good_machine_unpolluted () =
  (* With more faults than one word batch, detection must be identical to
     simulating each fault alone. *)
  let nl = small_circuit () in
  let faults = Fault.all nl in
  let rng = Rng.create 3 in
  let inputs = List.init 6 (fun _ -> Rng.bitvec rng 2) in
  let batch = Fsim.run_seq nl ~inputs ~faults in
  List.iter
    (fun f ->
      let alone = Fsim.run_seq nl ~inputs ~faults:[ f ] <> [] in
      let inbatch = List.exists (Fault.equal f) batch in
      check "batched = isolated" true (alone = inbatch))
    faults

(* ------------------------------------------------------------------ *)
(* PODEM                                                              *)
(* ------------------------------------------------------------------ *)

let test_podem_finds_test () =
  let nl = small_circuit () in
  let g = Netlist.find_po nl "y" in
  (match Podem.generate nl { f_net = g; f_stuck = false } with
  | Podem.Test v -> check "generated vector detects" true
      (Fsim.detects_comb nl v { f_net = g; f_stuck = false })
  | _ -> Alcotest.fail "expected a test");
  match Podem.generate nl { f_net = g; f_stuck = true } with
  | Podem.Test v ->
      check "sa1 vector detects" true
        (Fsim.detects_comb nl v { f_net = g; f_stuck = true })
  | _ -> Alcotest.fail "expected a test for sa1"

let test_podem_redundant () =
  let nl, buf = redundant_circuit () in
  match Podem.generate nl { f_net = buf; f_stuck = true } with
  | Podem.Untestable -> ()
  | Podem.Test _ -> Alcotest.fail "redundant fault cannot have a test"
  | Podem.Aborted -> Alcotest.fail "tiny search space must not abort"

let test_podem_every_outcome_consistent () =
  (* On a random-ish structured circuit, every Test outcome must really
     detect its fault. *)
  let nl = Netlist.create "mix" in
  let a = Builder.input_word nl "a" 4 in
  let b = Builder.input_word nl "b" 4 in
  let zero = Netlist.add_gate nl Cell.Const0 [||] in
  let s, c = Builder.adder nl a b ~cin:zero in
  let sel = Netlist.add_pi nl "sel" in
  let m = Builder.mux2_word nl ~sel ~a:s ~b in
  Builder.output_word nl "y" m;
  Netlist.add_po nl "c" c;
  List.iter
    (fun f ->
      match Podem.generate nl f with
      | Podem.Test v ->
          check (Fault.name nl f ^ " vector works") true (Fsim.detects_comb nl v f)
      | Podem.Untestable | Podem.Aborted -> ())
    (Fault.collapse nl)

let test_podem_full_run_small () =
  let nl = small_circuit () in
  let stats = Podem.run ~random_patterns:4 nl in
  check "full coverage on trivial circuit" true (stats.Podem.coverage > 99.0);
  check "no aborts" true (stats.Podem.aborted = []);
  check "vectors detect everything" true
    (let det =
       Fsim.run_comb nl ~vectors:stats.Podem.vectors ~faults:(Fault.collapse nl)
     in
     List.length det = List.length stats.Podem.detected)

let test_podem_run_adder () =
  let nl = Netlist.create "a8" in
  let a = Builder.input_word nl "a" 8 in
  let b = Builder.input_word nl "b" 8 in
  let zero = Netlist.add_gate nl Cell.Const0 [||] in
  let s, c = Builder.adder nl a b ~cin:zero in
  Builder.output_word nl "s" s;
  Netlist.add_po nl "c" c;
  let stats = Podem.run nl in
  check "adder fully testable" true (stats.Podem.efficiency > 99.9);
  check "coverage high" true (stats.Podem.coverage > 99.0);
  check "test set nonempty" true (stats.Podem.vectors <> [])

(* The six distinct paper cores under the default flow.  Per-core
   faults / vectors / detected / redundant / aborted and an MD5 of each
   vector list (one [Bitvec.to_string] per line), recorded from the
   full-resimulation engine that event-driven implication replaced: the
   search must make the same decisions in the same order.  GCD's search
   calls 61 faults untestable, but the final vectors detect 2 of them, so
   only 59 are reported redundant. *)
let paper_core_golden =
  [
    ("PREP", Socet_cores.Preprocessor.core, (1060, 151, 986, 73, 1),
     "3015471366e8e684df38fb6e45c2a7b5");
    ("CPU", Socet_cores.Cpu.core, (1188, 190, 1110, 78, 0),
     "53fc3980af9f9ff26829f3919cb0e6c0");
    ("DISPLAY", Socet_cores.Display.core, (1516, 206, 1441, 64, 11),
     "ebe3f8e6b742105f68b21b2e948bb038");
    ("GFX", Socet_cores.Graphics.core, (1050, 133, 969, 80, 1),
     "60f38a49de99ab61d8e2703aa47463e7");
    ("GCD", Socet_cores.Gcd_core.core, (786, 103, 727, 59, 0),
     "7f49278f275fff3a7cdbd875052e049c");
    ("X25", Socet_cores.X25.core, (592, 95, 551, 41, 0),
     "1d6758e6223874a6b7337fce9ccb8d3b");
  ]

let podem_counter name = Obs.value (Obs.counter ~scope:"atpg" ("podem." ^ name))

(* Run [f] with metrics recording on, returning its result and the
   change of each named PODEM counter. *)
let with_podem_counters names f =
  let was_on = Obs.enabled () in
  Obs.configure ();
  let before = List.map podem_counter names in
  let r = Fun.protect ~finally:(fun () -> if not was_on then Obs.disable ()) f in
  (r, List.map2 (fun name b -> podem_counter name - b) names before)

let test_podem_paper_cores_golden () =
  let (), deltas =
    with_podem_counters [ "decisions"; "backtracks"; "budget_escalations" ]
      (fun () ->
        List.iter
          (fun (name, core, (faults, vecs, det, red, ab), digest) ->
            let nl = Socet_synth.Elaborate.core_to_netlist (core ()) in
            let s = Podem.run ~seed:42 nl in
            check_int (name ^ " faults") faults s.Podem.total_faults;
            check_int (name ^ " vectors") vecs (List.length s.Podem.vectors);
            check_int (name ^ " detected") det (List.length s.Podem.detected);
            check_int (name ^ " redundant") red (List.length s.Podem.redundant);
            check_int (name ^ " aborted") ab (List.length s.Podem.aborted);
            check (name ^ " no redundant fault is detected") true
              (List.for_all
                 (fun f -> not (List.exists (Fault.equal f) s.Podem.detected))
                 s.Podem.redundant);
            check (name ^ " efficiency <= 100") true (s.Podem.efficiency <= 100.0);
            Alcotest.(check string)
              (name ^ " vector digest") digest
              (Digest.to_hex
                 (Digest.string
                    (String.concat "\n" (List.map Bitvec.to_string s.Podem.vectors)))))
          paper_core_golden)
  in
  Alcotest.(check (list int))
    "decisions / backtracks / escalations" [ 85_664; 75_223; 209 ] deltas

(* Every [generate] call ends in exactly one outcome counter. *)
let test_podem_outcome_counters () =
  let nl = Socet_synth.Elaborate.core_to_netlist (Socet_cores.Gcd_core.core ()) in
  let (), deltas =
    with_podem_counters
      [ "faults_targeted"; "outcome_test"; "outcome_untestable"; "outcome_aborted";
        "decisions"; "decisions_in_aborted" ]
      (fun () -> ignore (Podem.run ~random_patterns:8 nl))
  in
  match deltas with
  | [ targeted; test; untestable; aborted; decisions; in_aborted ] ->
      check "faults targeted" true (targeted > 0);
      check_int "outcomes sum to faults targeted" targeted (test + untestable + aborted);
      check "aborted decisions within all decisions" true
        (in_aborted >= 0 && in_aborted <= decisions);
      check "no aborted decisions without aborts" true (aborted > 0 || in_aborted = 0)
  | _ -> assert false

(* A random combinational netlist: [k] <= 10 PIs, then gates over earlier
   nets (constants included, so some faults are redundant), POs on the
   last gate and a few random nets. *)
let random_comb_netlist rng =
  let nl = Netlist.create "rc" in
  let k = 1 + Rng.int rng 10 in
  let nets = ref (List.init k (fun i -> Netlist.add_pi nl (Printf.sprintf "i%d" i))) in
  let pick () = List.nth !nets (Rng.int rng (List.length !nets)) in
  let kinds =
    [| Cell.Buf; Cell.Inv; Cell.And2; Cell.Or2; Cell.Nand2; Cell.Nor2; Cell.Xor2;
       Cell.Xnor2; Cell.Mux2; Cell.Const0; Cell.Const1 |]
  in
  let ngates = 1 + Rng.int rng 40 in
  for _ = 1 to ngates do
    let kind = kinds.(Rng.int rng (Array.length kinds)) in
    let arity =
      match kind with
      | Cell.Const0 | Cell.Const1 -> 0
      | Cell.Buf | Cell.Inv -> 1
      | Cell.Mux2 -> 3
      | _ -> 2
    in
    let g = Netlist.add_gate nl kind (Array.init arity (fun _ -> pick ())) in
    nets := !nets @ [ g ]
  done;
  let last = List.nth !nets (List.length !nets - 1) in
  Netlist.add_po nl "y" last;
  for j = 1 to Rng.int rng 3 do
    Netlist.add_po nl (Printf.sprintf "o%d" j) (pick ())
  done;
  (nl, k)

(* Independent oracle for PODEM's [generate]: every test vector detects
   its fault under fault simulation, and no fault PODEM proves untestable
   is detected by any of the 2^k input vectors. *)
let prop_podem_exhaustive_oracle =
  QCheck.Test.make
    ~name:"podem outcomes agree with exhaustive simulation"
    ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nl, k = random_comb_netlist rng in
      let scoap = if seed mod 2 = 0 then Some (Scoap.compute nl) else None in
      let all_vectors = List.init (1 lsl k) (fun x -> Bitvec.of_int ~width:k x) in
      List.for_all
        (fun f ->
          match Podem.generate ?scoap nl f with
          | Podem.Test v -> Fsim.detects_comb nl v f
          | Podem.Untestable ->
              not (List.exists (fun v -> Fsim.detects_comb nl v f) all_vectors)
          | Podem.Aborted -> true)
        (Fault.all nl))

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)
(* ------------------------------------------------------------------ *)

let test_compact_drops_redundant_vectors () =
  let nl = small_circuit () in
  let faults = Fault.all nl in
  let base =
    [
      vec_of_string "011";
      vec_of_string "000";
      vec_of_string "001";
      vec_of_string "010";
      vec_of_string "100";
    ]
  in
  let padded = base @ base @ base in
  let compacted = Fsim.run_comb nl ~vectors:padded ~faults |> fun det ->
    check "padded set detects all" true (List.length det = List.length faults);
    Compact.reverse_order nl ~vectors:padded ~faults
  in
  check "compaction shrinks the set" true (List.length compacted <= List.length base + 1);
  let det = Fsim.run_comb nl ~vectors:compacted ~faults in
  check_int "compaction preserves coverage" (List.length faults) (List.length det)

let prop_compaction_preserves_coverage =
  QCheck.Test.make ~name:"compaction never loses coverage" ~count:30
    QCheck.(int_bound 10000)
    (fun seed ->
      let rng = Rng.create seed in
      let nl = Netlist.create "p" in
      let a = Builder.input_word nl "a" 3 in
      let b = Builder.input_word nl "b" 3 in
      let x = Builder.xor_word nl a b in
      let o = Builder.or_word nl x a in
      Builder.output_word nl "y" o;
      let faults = Fault.collapse nl in
      let vectors = List.init 12 (fun _ -> Rng.bitvec rng 6) in
      let before = Fsim.run_comb nl ~vectors ~faults in
      let kept = Compact.reverse_order nl ~vectors ~faults in
      let after = Fsim.run_comb nl ~vectors:kept ~faults in
      List.length before = List.length after)

(* ------------------------------------------------------------------ *)
(* Sequential random TPG                                              *)
(* ------------------------------------------------------------------ *)

let test_seqgen_covers_combinational () =
  (* A purely combinational circuit is easy even for random sequences. *)
  let nl = Netlist.create "comb" in
  let a = Builder.input_word nl "a" 4 in
  let b = Builder.input_word nl "b" 4 in
  Builder.output_word nl "y" (Builder.xor_word nl a b);
  let stats = Seqgen.random ~cycles:64 nl in
  check "combinational circuit well covered" true (stats.Seqgen.coverage > 95.0)

let test_seqgen_poor_on_deep_state () =
  (* A long counter chain gated behind an equality check is hard for
     random patterns: coverage must be far from complete. *)
  let nl = Netlist.create "deep" in
  let a = Builder.input_word nl "a" 8 in
  let q = Builder.new_register nl ~name:"cnt" ~width:8 in
  let next = Builder.inc_word nl q in
  (* Only counts up when input matches the counter exactly. *)
  let en = Builder.eq_word nl a q in
  Builder.connect_register nl ~q ~d:next ~enable:en ();
  let top = Builder.eq_word nl q (Builder.const_word nl ~width:8 0xA5) in
  Netlist.add_po nl "hit" top;
  let stats = Seqgen.random ~cycles:128 nl in
  check "deep sequential poorly covered" true (stats.Seqgen.coverage < 60.0)


(* ------------------------------------------------------------------ *)
(* SCOAP                                                               *)
(* ------------------------------------------------------------------ *)

let test_scoap_basic_gates () =
  let nl = Netlist.create "s" in
  let a = Netlist.add_pi nl "a" in
  let b = Netlist.add_pi nl "b" in
  let g_and = Netlist.add_gate nl Cell.And2 [| a; b |] in
  let g_or = Netlist.add_gate nl Cell.Or2 [| a; b |] in
  Netlist.add_po nl "x" g_and;
  Netlist.add_po nl "y" g_or;
  let t = Scoap.compute nl in
  check_int "PI cc0" 1 t.Scoap.cc0.(a);
  check_int "PI cc1" 1 t.Scoap.cc1.(a);
  (* AND: 1 needs both inputs at 1; 0 needs either at 0. *)
  check_int "and cc1" 3 t.Scoap.cc1.(g_and);
  check_int "and cc0" 2 t.Scoap.cc0.(g_and);
  (* OR is the dual. *)
  check_int "or cc0" 3 t.Scoap.cc0.(g_or);
  check_int "or cc1" 2 t.Scoap.cc1.(g_or);
  (* PO nets are directly observable. *)
  check_int "po co" 0 t.Scoap.co.(g_and);
  (* Observing [a] through the AND needs b=1 (+1 level). *)
  check "input observable" true (t.Scoap.co.(a) <= 2)

let test_scoap_constants_uncontrollable () =
  let nl = Netlist.create "s" in
  let z = Netlist.add_gate nl Cell.Const0 [||] in
  Netlist.add_po nl "z" z;
  let t = Scoap.compute nl in
  check_int "const0 cc0" 0 t.Scoap.cc0.(z);
  check_int "const0 cc1 saturates" Scoap.infinity_cost t.Scoap.cc1.(z)

let test_scoap_deep_chain_costs_grow () =
  let nl = Netlist.create "s" in
  let a = Netlist.add_pi nl "a" in
  let rec chain net = function
    | 0 -> net
    | k -> chain (Netlist.add_gate nl Cell.And2 [| net; Netlist.add_pi nl (Printf.sprintf "p%d" k) |]) (k - 1)
  in
  let deep = chain a 6 in
  Netlist.add_po nl "y" deep;
  let t = Scoap.compute nl in
  check "deep cc1 grows" true (t.Scoap.cc1.(deep) > t.Scoap.cc1.(a));
  check "input far from po harder to observe" true (t.Scoap.co.(a) > t.Scoap.co.(deep))

let test_scoap_hardest_faults () =
  let nl = Netlist.create "s" in
  let a = Netlist.add_pi nl "a" in
  let b = Netlist.add_pi nl "b" in
  let g = Netlist.add_gate nl Cell.And2 [| a; b |] in
  Netlist.add_po nl "y" g;
  let t = Scoap.compute nl in
  let hard = Scoap.hardest_faults nl t 2 in
  check_int "asked for two" 2 (List.length hard);
  (* Costs are sorted descending. *)
  match hard with
  | (_, c1) :: (_, c2) :: _ -> check "sorted" true (c1 >= c2)
  | _ -> Alcotest.fail "expected two"

let test_scoap_guides_podem () =
  (* With SCOAP guidance PODEM must not lose coverage or efficiency. *)
  let core = Socet_cores.Gcd_core.core () in
  let nl = Socet_synth.Elaborate.core_to_netlist core in
  let with_scoap = Podem.run ~use_scoap:true ~random_patterns:16 nl in
  let without = Podem.run ~use_scoap:false ~random_patterns:16 nl in
  check "same coverage ballpark" true
    (abs_float (with_scoap.Podem.coverage -. without.Podem.coverage) < 3.0);
  check "guided efficiency at least as good" true
    (with_scoap.Podem.efficiency >= without.Podem.efficiency -. 0.001)

let scoap_tests =
  [
    Alcotest.test_case "basic gates" `Quick test_scoap_basic_gates;
    Alcotest.test_case "constants" `Quick test_scoap_constants_uncontrollable;
    Alcotest.test_case "deep chains" `Quick test_scoap_deep_chain_costs_grow;
    Alcotest.test_case "hardest faults" `Quick test_scoap_hardest_faults;
    Alcotest.test_case "guides podem" `Quick test_scoap_guides_podem;
  ]

(* ------------------------------------------------------------------ *)
(* Diagnosis                                                           *)
(* ------------------------------------------------------------------ *)

let adder_nl () =
  let nl = Netlist.create "a4" in
  let a = Builder.input_word nl "a" 4 in
  let b = Builder.input_word nl "b" 4 in
  let zero = Netlist.add_gate nl Cell.Const0 [||] in
  let s, c = Builder.adder nl a b ~cin:zero in
  Builder.output_word nl "s" s;
  Netlist.add_po nl "c" c;
  nl

let test_diagnosis_pinpoints_defect () =
  let nl = adder_nl () in
  let faults = Fault.collapse nl in
  let stats = Podem.run nl in
  let dict = Diagnose.build nl ~vectors:stats.Podem.vectors ~faults in
  (* Plant each of a few defects and check it ranks among the top
     candidates. *)
  List.iteri
    (fun i fault ->
      if i mod 9 = 0 then begin
        let observed = Diagnose.observe nl ~vectors:stats.Podem.vectors ~fault in
        let candidates = Diagnose.diagnose dict observed in
        check
          (Fault.name nl fault ^ " among exact candidates")
          true
          (List.exists (fun (f, d) -> d = 0 && Fault.equal f fault) candidates)
      end)
    faults

let test_diagnosis_resolution () =
  let nl = adder_nl () in
  let faults = Fault.collapse nl in
  let stats = Podem.run nl in
  (* A compacted detection set distinguishes few faults; padding it with
     random vectors (the classic diagnostic-test-set enlargement) raises
     the resolution substantially. *)
  let dict_small = Diagnose.build nl ~vectors:stats.Podem.vectors ~faults in
  let rng = Socet_util.Rng.create 5 in
  let extra =
    List.init 48 (fun _ -> Socet_util.Rng.bitvec rng (Fsim.vector_length nl))
  in
  let dict_big =
    Diagnose.build nl ~vectors:(stats.Podem.vectors @ extra) ~faults
  in
  check "enlarging the set helps" true
    (Diagnose.distinguishable dict_big > Diagnose.distinguishable dict_small);
  check "good resolution with the enlarged set" true
    (Diagnose.distinguishable dict_big > 50.0)

let test_diagnosis_near_match () =
  let nl = adder_nl () in
  let faults = Fault.collapse nl in
  let stats = Podem.run nl in
  let dict = Diagnose.build nl ~vectors:stats.Podem.vectors ~faults in
  (* A syndrome not in the dictionary (all vectors failing) still returns
     ranked candidates. *)
  let weird = Socet_util.Bitvec.create (List.length stats.Podem.vectors) in
  Socet_util.Bitvec.fill weird true;
  let candidates = Diagnose.diagnose dict weird in
  check "nonempty ranking" true (candidates <> []);
  match candidates with
  | (_, d1) :: (_, d2) :: _ -> check "sorted by distance" true (d1 <= d2)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Test points                                                         *)
(* ------------------------------------------------------------------ *)

(* A 12-input AND cone: random patterns almost never see its output
   change, so SCOAP flags it and a test point must lift coverage. *)
let and_cone () =
  let nl = Netlist.create "cone" in
  let ins = Builder.input_word nl "x" 12 in
  let out = Builder.reduce_and nl ins in
  (* A second, easy output keeps the netlist from being all-hard. *)
  let easy = Builder.reduce_or nl (Array.sub ins 0 2) in
  Netlist.add_po nl "hard" out;
  Netlist.add_po nl "easy" easy;
  nl

let test_testpoint_proposals () =
  let nl = and_cone () in
  let s = Scoap.compute nl in
  let points = Testpoint.propose nl s ~budget:3 in
  check_int "budget respected" 3 (List.length points);
  check "cost model positive" true (Testpoint.area_cost points > 0)

let test_testpoint_apply_observe () =
  let nl = and_cone () in
  let npo = List.length (Netlist.pos nl) in
  Testpoint.apply nl [ Testpoint.Observe (Netlist.find_po nl "hard") ];
  check_int "observation point adds a PO" (npo + 1) (List.length (Netlist.pos nl))

let test_testpoint_control_rewires () =
  let nl = and_cone () in
  let hard = Netlist.find_po nl "hard" in
  (* Control the first AND gate's output. *)
  let target = (Netlist.fanin nl hard).(0) in
  Testpoint.apply nl [ Testpoint.Control_one target ];
  check "ctl pin added" true
    (try ignore (Netlist.find_pi nl "tp_ctl.0"); true with Not_found -> false);
  (* The reader now goes through the inserted OR gate. *)
  check "reader rewired" true
    (Array.for_all (fun p -> p <> target) (Netlist.fanin nl hard)
    || (Netlist.fanin nl hard).(1) <> target)

let test_testpoint_coverage_gain () =
  let before, after = Testpoint.coverage_gain ~mk:and_cone ~budget:4 ~patterns:48 in
  check "insertion helps random patterns" true (after > before +. 5.0)

let diagnose_tp_tests =
  [
    Alcotest.test_case "pinpoints defects" `Quick test_diagnosis_pinpoints_defect;
    Alcotest.test_case "resolution" `Quick test_diagnosis_resolution;
    Alcotest.test_case "near match" `Quick test_diagnosis_near_match;
    Alcotest.test_case "proposals" `Quick test_testpoint_proposals;
    Alcotest.test_case "observe point" `Quick test_testpoint_apply_observe;
    Alcotest.test_case "control rewires" `Quick test_testpoint_control_rewires;
    Alcotest.test_case "coverage gain" `Quick test_testpoint_coverage_gain;
  ]

let () =
  Alcotest.run "socet_atpg"
    [
      ( "fault",
        [
          Alcotest.test_case "universe" `Quick test_fault_universe;
          Alcotest.test_case "collapse" `Quick test_fault_collapse;
          Alcotest.test_case "names" `Quick test_fault_name;
        ] );
      ( "fsim",
        [
          Alcotest.test_case "detects and faults" `Quick test_fsim_detects_and_sa0;
          Alcotest.test_case "pseudo-output observation" `Quick
            test_fsim_pseudo_output_observation;
          Alcotest.test_case "fault dropping" `Quick test_fsim_fault_dropping_counts;
          Alcotest.test_case "sequential needs time" `Quick test_fsim_seq_needs_time;
          Alcotest.test_case "fault-parallel batching" `Quick
            test_fsim_seq_good_machine_unpolluted;
        ] );
      ( "podem",
        [
          Alcotest.test_case "finds tests" `Quick test_podem_finds_test;
          Alcotest.test_case "proves redundancy" `Quick test_podem_redundant;
          Alcotest.test_case "tests really detect" `Quick
            test_podem_every_outcome_consistent;
          Alcotest.test_case "full run small" `Quick test_podem_full_run_small;
          Alcotest.test_case "full run adder" `Quick test_podem_run_adder;
          Alcotest.test_case "paper cores golden" `Quick test_podem_paper_cores_golden;
          Alcotest.test_case "outcome counters" `Quick test_podem_outcome_counters;
          QCheck_alcotest.to_alcotest prop_podem_exhaustive_oracle;
        ] );
      ( "compact",
        [
          Alcotest.test_case "drops redundant vectors" `Quick
            test_compact_drops_redundant_vectors;
          QCheck_alcotest.to_alcotest prop_compaction_preserves_coverage;
        ] );
      ("scoap", scoap_tests);
      ("diagnose+testpoints", diagnose_tp_tests);
      ( "seqgen",
        [
          Alcotest.test_case "combinational easy" `Quick test_seqgen_covers_combinational;
          Alcotest.test_case "deep state hard" `Quick test_seqgen_poor_on_deep_state;
        ] );
    ]
