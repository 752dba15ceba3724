(* Cross-layer fuzzing: generate random (but valid) RTL cores and check
   the invariants that every layer of the flow promises, ending with the
   strongest one — values really ride the discovered transparency paths
   through the synthesized gates. *)

open Socet_util
open Socet_rtl
open Rtl_types
open Socet_core
module Digraph = Socet_graph.Digraph

let w = Gen.w (* uniform register/port width keeps slice arithmetic honest *)

(* The random-core generator lives in [Gen] (shared with test_parallel). *)
let random_core = Gen.random_core

let check = Alcotest.(check bool)

let prop_hscan_covers_everything =
  QCheck.Test.make ~name:"fuzz: hscan feeds every register slice" ~count:120
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let core = random_core rng in
      let rcg = Rcg.of_core core in
      let _ = Socet_scan.Hscan.insert rcg in
      List.for_all
        (fun reg ->
          (* Every bit of every register is written by some marked edge. *)
          let covered =
            List.fold_left
              (fun acc (e : Rcg.edge_label Digraph.edge) ->
                if e.label.Rcg.e_hscan && e.dst = reg then
                  acc
                  lor (((1 lsl range_width e.label.Rcg.e_dst_range) - 1)
                      lsl e.label.Rcg.e_dst_range.lsb)
                else acc)
              0
              (Digraph.pred (Rcg.graph rcg) reg)
          in
          covered = (1 lsl w) - 1)
        (Rcg.reg_ids rcg))

let prop_hscan_marked_subgraph_acyclic =
  QCheck.Test.make ~name:"fuzz: hscan chains are acyclic" ~count:120
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let core = random_core rng in
      let rcg = Rcg.of_core core in
      let _ = Socet_scan.Hscan.insert rcg in
      (* Build the marked subgraph and topologically sort it. *)
      let g = Rcg.graph rcg in
      let marked = Digraph.create () in
      for _ = 1 to Digraph.node_count g do
        ignore (Digraph.add_node marked)
      done;
      List.iter
        (fun (e : Rcg.edge_label Digraph.edge) ->
          if e.label.Rcg.e_hscan then
            ignore (Digraph.add_edge marked ~src:e.src ~dst:e.dst ()))
        (Digraph.edges g);
      Socet_graph.Search.topological marked <> None)

let version_ladder_ok seed =
  let rng = Rng.create seed in
  let core = random_core rng in
  let rcg = Rcg.of_core core in
  let _ = Socet_scan.Hscan.insert rcg in
  let versions = Version.generate rcg in
  versions <> []
  && (* overheads strictly increase along the ladder *)
  (let rec mono = function
     | a :: (b :: _ as rest) ->
         a.Version.v_overhead < b.Version.v_overhead && mono rest
     | _ -> true
   in
   mono versions)
  && (* v1 justifies every output and propagates every input *)
  (let v1 = List.hd versions in
   List.length v1.Version.v_just = List.length (Rcg.output_ids rcg)
   && List.length v1.Version.v_prop = List.length (Rcg.input_ids rcg))
  && (* pair latencies never get worse up the ladder *)
  (let rec pairs_ok = function
     | a :: (b :: _ as rest) ->
         List.for_all
           (fun (p : Version.pair) ->
             match
               Version.latency_between b ~input:p.Version.pr_input
                 ~output:p.Version.pr_output
             with
             | Some l -> l <= p.Version.pr_latency
             | None -> true)
           a.Version.v_pairs
         && pairs_ok rest
     | _ -> true
   in
   pairs_ok versions)

let prop_version_ladder_invariants =
  QCheck.Test.make ~name:"fuzz: version ladders monotone and complete" ~count:80
    QCheck.(int_bound 1_000_000)
    version_ladder_ok

(* Seeds whose ladders once lost a pair's faster path up the ladder (the
   rung's fresh pairs came back slower or not at all). *)
let test_version_ladder_regressions () =
  List.iter
    (fun seed ->
      check (Printf.sprintf "seed %d ladder invariants" seed) true
        (version_ladder_ok seed))
    [ 454182; 21957; 131507; 487007 ]

let prop_solution_latency_consistent =
  QCheck.Test.make ~name:"fuzz: reported latency equals depth-schedule max" ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let core = random_core rng in
      let rcg = Rcg.of_core core in
      let _ = Socet_scan.Hscan.insert rcg in
      let v1 = List.hd (Version.generate rcg) in
      List.for_all
        (fun (_, (s : Tsearch.sol)) ->
          let max_depth =
            List.fold_left (fun acc (_, d) -> max acc d) 0 s.Tsearch.s_depths
          in
          s.Tsearch.s_latency <= max_depth
          && s.Tsearch.s_latency >= 0
          && List.for_all (fun (_, cyc) -> cyc > 0) s.Tsearch.s_freezes)
        (v1.Version.v_just @ v1.Version.v_prop))

let prop_gate_level_transparency =
  QCheck.Test.make ~name:"fuzz: propagation paths carry data through gates"
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let core = random_core rng in
      let rcg = Rcg.of_core core in
      let _ = Socet_scan.Hscan.insert rcg in
      let inputs = Rcg.input_ids rcg in
      List.for_all
        (fun input ->
          match
            Tsearch.propagate rcg ~prefer_hscan:true
              ~allowed:(fun _ -> true)
              ~input ()
          with
          | None -> true (* nothing found: nothing to validate *)
          | Some sol ->
              if
                List.exists
                  (fun (e : Rcg.edge_label Digraph.edge) ->
                    e.label.Rcg.e_transfer < 0)
                  sol.Tsearch.s_edges
              then true (* synthesized edges: not simulable *)
              else
                let name = (Rcg.node rcg input).Rcg.n_name in
                let value = Rng.bitvec rng w in
                Tsim.check_propagation rcg sol ~input:name ~value)
        inputs)

let prop_elaboration_sound =
  QCheck.Test.make ~name:"fuzz: elaboration yields a legal sequential netlist"
    ~count:120
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let core = random_core rng in
      let nl = Socet_synth.Elaborate.core_to_netlist core in
      let open Socet_netlist in
      Array.length (Netlist.comb_order nl) = Netlist.gate_count nl
      && List.length (Netlist.pis nl) = Rtl_core.input_bit_count core
      && List.length (Netlist.pos nl) = Rtl_core.output_bit_count core)

let prop_atpg_vectors_detect =
  QCheck.Test.make ~name:"fuzz: ATPG vectors detect what they claim" ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let core = random_core rng in
      let nl = Socet_synth.Elaborate.core_to_netlist core in
      let stats = Socet_atpg.Podem.run ~random_patterns:32 nl in
      let redetected =
        Socet_atpg.Fsim.run_comb nl ~vectors:stats.Socet_atpg.Podem.vectors
          ~faults:(Socet_atpg.Fault.collapse nl)
      in
      List.length redetected = List.length stats.Socet_atpg.Podem.detected)

(* Malformed inputs: the generators above only emit valid cores; these
   two deliberately break the artifact afterwards and check the failure
   is always a structured error — never an uncaught exception from an
   engine's inner loop (the full combination matrix lives in
   test_chaos.ml; these keep the fuzz corpus honest too). *)

let prop_corrupted_elaboration_caught =
  QCheck.Test.make ~name:"fuzz: corrupted netlists never escape the validator"
    ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let core = random_core rng in
      let open Socet_netlist in
      let nl = Socet_synth.Elaborate.core_to_netlist core in
      let victim =
        (* a combinational gate with fanin: skips PI pseudo-cells, and
           stays retypeable (set_kind refuses to turn a DFF into logic) *)
        let g = ref (-1) in
        for n = 0 to Netlist.gate_count nl - 1 do
          if
            !g < 0
            && Array.length (Netlist.fanin nl n) > 0
            && not (Cell.is_dff (Netlist.kind nl n))
          then g := n
        done;
        !g
      in
      victim >= 0
      && begin
           if Rng.bool rng then
             Netlist.corrupt_fanin nl victim ~pin:0
               (Netlist.gate_count nl + 1 + Rng.int rng 50)
           else Netlist.set_kind nl victim Cell.Inv [| victim |];
           (match Validate.check nl with
           | Error (e :: _) -> e.Socet_util.Error.err_engine = "netlist"
           | _ -> false)
           && (try
                 Validate.check_exn nl;
                 false
               with
              | Socet_util.Error.Socet_error _ -> true
              | _ -> false)
         end)

let prop_malformed_rtl_caught =
  QCheck.Test.make ~name:"fuzz: malformed RTL mutations raise structured errors"
    ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let core = random_core rng in
      try
        (match Rng.int rng 3 with
        | 0 -> Rtl_core.add_reg core "R0" w (* duplicate name *)
        | 1 ->
            (* width-mismatched transfer, caught by validate *)
            Rtl_core.add_reg core "Wbad" (w + 3);
            Rtl_core.add_transfer core ~src:(Rtl_core.port core "I0")
              ~dst:(Rtl_core.reg core "Wbad") ();
            Rtl_core.validate core
        | _ -> ignore (Rtl_core.reg core "no_such_register"));
        false
      with
      | Socet_util.Error.Socet_error _ -> true
      | _ -> false)

let smoke_one_fuzz_core () =
  (* A deterministic instance of the generator, as a plain test. *)
  let rng = Rng.create 2024 in
  let core = random_core rng in
  Rtl_core.validate core;
  let rcg = Rcg.of_core core in
  let h = Socet_scan.Hscan.insert rcg in
  check "depth positive" true (h.Socet_scan.Hscan.depth > 0);
  check "versions exist" true (Version.generate rcg <> [])

let () =
  Alcotest.run "socet_fuzz"
    [
      ( "fuzz",
        [
          Alcotest.test_case "generator smoke" `Quick smoke_one_fuzz_core;
          QCheck_alcotest.to_alcotest prop_hscan_covers_everything;
          QCheck_alcotest.to_alcotest prop_hscan_marked_subgraph_acyclic;
          QCheck_alcotest.to_alcotest prop_version_ladder_invariants;
          Alcotest.test_case "version ladder regression seeds" `Quick
            test_version_ladder_regressions;
          QCheck_alcotest.to_alcotest prop_solution_latency_consistent;
          QCheck_alcotest.to_alcotest prop_elaboration_sound;
          QCheck_alcotest.to_alcotest prop_gate_level_transparency;
          QCheck_alcotest.to_alcotest prop_atpg_vectors_detect;
          QCheck_alcotest.to_alcotest prop_corrupted_elaboration_caught;
          QCheck_alcotest.to_alcotest prop_malformed_rtl_caught;
        ] );
    ]
