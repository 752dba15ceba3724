(* Regenerates every table and figure of the paper's evaluation (DAC'98,
   Ghosh/Dey/Jha) on the reproduced systems, printing paper values next to
   measured ones, then the wrapper/TAM backend's comparison against the
   CCG flow.  The output is timing-free and deterministic at any domain
   count; bench/reproduce.expected is its golden, checked byte-for-byte
   by [dune build @bench/reproduce] (regenerate with [dune promote]).
   See EXPERIMENTS.md for the paper-vs-measured discussion. *)

open Socet_util
open Socet_rtl
open Socet_core
open Socet_cores

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let pct = Printf.sprintf "%.1f"

(* ------------------------------------------------------------------ *)
(* Shared artifacts (ATPG runs once per core)                          *)
(* ------------------------------------------------------------------ *)

let soc1 = Systems.system1 ()
let soc2 = Systems.system2 ()

let all_v1 soc = List.map (fun ci -> (ci.Soc.ci_name, 1)) soc.Soc.insts
let all_v3 soc = List.map (fun ci -> (ci.Soc.ci_name, 3)) soc.Soc.insts

(* ------------------------------------------------------------------ *)
(* Section 3 worked example                                            *)
(* ------------------------------------------------------------------ *)

let worked_example () =
  section "Worked example (Sec. 3): testing the DISPLAY through PREP + CPU";
  let rows =
    List.map
      (fun (cpu_v, paper_period, paper_tat) ->
        let sched =
          Schedule.build soc1
            ~choice:[ ("PREP", 2); ("CPU", cpu_v); ("DISPLAY", 1) ]
            ()
        in
        let t =
          List.find (fun t -> t.Schedule.ct_inst = "DISPLAY") sched.Schedule.s_tests
        in
        [
          Printf.sprintf "CPU version %d" cpu_v;
          string_of_int paper_period;
          string_of_int t.Schedule.ct_period;
          Printf.sprintf "525x%d+3 = %d" paper_period paper_tat;
          Printf.sprintf "%dx%d+%d = %d" t.Schedule.ct_vectors t.Schedule.ct_period
            t.Schedule.ct_tail t.Schedule.ct_time;
        ])
      [ (1, 9, 4728); (2, 4, 2103); (3, 3, 1578) ]
  in
  Ascii_table.print
    ~header:
      [
        "design";
        "paper cyc/vec";
        "ours cyc/vec";
        "paper DISPLAY TAT";
        "our DISPLAY TAT";
      ]
    rows;
  let disp = Soc.inst soc1 "DISPLAY" in
  let nff = List.length (Socet_netlist.Netlist.dffs disp.Soc.ci_netlist) in
  let nin = Rtl_core.input_bit_count disp.Soc.ci_core in
  Printf.printf
    "FSCAN-BSCAN on the same core: paper (66+20)x105+85 = 9,115 cycles;\n\
     ours (%d+%d)x%d+%d = %d cycles (with our %d-vector test set).\n"
    nff nin (Soc.atpg_vectors disp)
    (nff + nin - 1)
    (Socet_scan.Bscan.test_time ~n_ff:nff ~n_inputs:nin
       ~n_vectors:(Soc.atpg_vectors disp))
    (Soc.atpg_vectors disp)

(* ------------------------------------------------------------------ *)
(* Figure 6 / Figure 8: version ladders                                *)
(* ------------------------------------------------------------------ *)

let version_table title inst pairs paper =
  section title;
  let ci = Soc.inst soc1 inst in
  let rcg = ci.Soc.ci_rcg in
  let header =
    ("version"
    :: List.map (fun (i, o) -> Printf.sprintf "%s->%s" i o) pairs)
    @ [ "ovhd (cells)"; "paper row" ]
  in
  let rows =
    List.map2
      (fun v paper_row ->
        (Printf.sprintf "Version %d" v.Version.v_index
        :: List.map
             (fun (i, o) ->
               match
                 Version.latency_between v ~input:(Rcg.node_id rcg i)
                   ~output:(Rcg.node_id rcg o)
               with
               | Some l -> string_of_int l
               | None -> "-")
             pairs)
        @ [ string_of_int v.Version.v_overhead; paper_row ])
      ci.Soc.ci_versions paper
  in
  Ascii_table.print ~header rows

let fig6 () =
  version_table "Figure 6: CPU transparency latency vs overhead" "CPU"
    [ ("Data", "Address_lo"); ("Data", "Address_hi") ]
    [ "6 / 2 / ovhd 3"; "1 / 2 / ovhd 10"; "1 / 1 / ovhd 30" ]

let fig8 () =
  version_table "Figure 8(a): PREPROCESSOR versions" "PREP"
    [ ("NUM", "DB"); ("NUM", "Address") ]
    [ "5 / 2 / ovhd 2"; "1 / 2 / ovhd 19"; "1 / 1 / ovhd 37" ];
  version_table "Figure 8(c): DISPLAY versions" "DISPLAY"
    [ ("D", "PORT1"); ("A_lo", "PORT6") ]
    [ "2 / 3 / ovhd 5"; "2 / 1 / ovhd 20"; "1 / 1 / ovhd 55" ]

(* ------------------------------------------------------------------ *)
(* Figure 10: design-space scatter                                     *)
(* ------------------------------------------------------------------ *)

let fig10_points = lazy (Select.design_space soc1)

let fig10 () =
  section "Figure 10: test application time vs area overhead (System 1)";
  let points = Lazy.force fig10_points in
  let rows =
    List.mapi
      (fun i p ->
        [
          string_of_int (i + 1);
          String.concat " "
            (List.map (fun (n, k) -> Printf.sprintf "%s=%d" n k) p.Select.pt_choice);
          string_of_int p.Select.pt_area;
          string_of_int p.Select.pt_time;
        ])
      points
  in
  Ascii_table.print ~header:[ "pt"; "core versions"; "area ovhd"; "TAT (cycles)" ] rows;
  (* Crude scatter: TAT on the vertical axis, area on the horizontal. *)
  let amin = List.fold_left (fun a p -> min a p.Select.pt_area) max_int points in
  let amax = List.fold_left (fun a p -> max a p.Select.pt_area) 0 points in
  let tmin = List.fold_left (fun a p -> min a p.Select.pt_time) max_int points in
  let tmax = List.fold_left (fun a p -> max a p.Select.pt_time) 0 points in
  let w = 56 and h = 14 in
  let grid = Array.make_matrix h w ' ' in
  List.iter
    (fun p ->
      let x =
        if amax = amin then 0
        else (p.Select.pt_area - amin) * (w - 1) / (amax - amin)
      in
      let y =
        if tmax = tmin then 0
        else (p.Select.pt_time - tmin) * (h - 1) / (tmax - tmin)
      in
      grid.(h - 1 - y).(x) <- '*')
    points;
  Printf.printf "TAT %6d +%s\n" tmax (String.make w '-');
  Array.iter
    (fun row -> Printf.printf "           |%s\n" (String.init w (Array.get row)))
    grid;
  Printf.printf "TAT %6d +%s\n" tmin (String.make w '-');
  Printf.printf "       area %d ... %d cells\n" amin amax;
  Printf.printf
    "TAT spread across the space: %.1fx (paper reports ~4.5x between its\n\
     design points 1 and 18).\n"
    (float_of_int tmax /. float_of_int tmin)

(* ------------------------------------------------------------------ *)
(* Table 1: design-space exploration for System 1                       *)
(* ------------------------------------------------------------------ *)

let min_tapp_point soc ~max_area =
  Select.best_time_point (Select.minimize_time soc ~max_area)

let table1 () =
  section "Table 1: design space exploration for System 1";
  let cov = Testgen.scan_access_coverage soc1 in
  let p_min_area = Select.evaluate soc1 ~choice:(all_v1 soc1) () in
  let p_min_lat = Select.evaluate soc1 ~choice:(all_v3 soc1) () in
  let p_min_tapp = min_tapp_point soc1 ~max_area:p_min_lat.Select.pt_area in
  let row label p paper =
    [
      label;
      string_of_int p.Select.pt_area;
      string_of_int p.Select.pt_time;
      pct cov.Testgen.fc;
      pct cov.Testgen.teff;
      paper;
    ]
  in
  Ascii_table.print
    ~header:
      [
        "circuit";
        "A.Ov. (cells)";
        "TApp (cyc)";
        "FCov %";
        "TEff %";
        "paper (AOv/TApp/FC/TEff)";
      ]
    [
      row "min area (pt 1)" p_min_area "156 / 17,387 / 98.4 / 99.8";
      row "min latency (pt 18)" p_min_lat "325 / 3,818 / 98.4 / 99.8";
      row "min chip TApp (pt 17)" p_min_tapp "307 / 3,806 / 98.4 / 99.8";
    ];
  if p_min_tapp.Select.pt_time <= p_min_lat.Select.pt_time then
    Printf.printf
      "As in the paper, minimum TApp does not require the minimum-latency\n\
       version of every core.\n"

(* ------------------------------------------------------------------ *)
(* Table 2: area overheads                                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: area overheads (core-level and chip-level DFT)";
  let per_system name soc paper_rows =
    let orig = Soc.original_area soc in
    let fscan =
      List.fold_left
        (fun acc ci -> acc + Socet_scan.Fscan.overhead ci.Soc.ci_netlist)
        0 soc.Soc.insts
    in
    let hscan = Soc.hscan_area_overhead soc in
    let bscan =
      List.fold_left
        (fun acc ci -> acc + Socet_scan.Bscan.ring_overhead ci.Soc.ci_core)
        0 soc.Soc.insts
    in
    let p_min_area = Select.evaluate soc ~choice:(all_v1 soc) () in
    let p_min_lat = Select.evaluate soc ~choice:(all_v3 soc) () in
    let p_min_tapp = min_tapp_point soc ~max_area:(2 * p_min_lat.Select.pt_area) in
    let percent x = pct (Socet_synth.Area.overhead_percent ~base:orig ~extra:x) in
    let mk label socet_chip paper =
      [
        Printf.sprintf "%s %s" name label;
        string_of_int orig;
        percent fscan;
        percent hscan;
        percent bscan;
        percent socet_chip;
        percent (fscan + bscan);
        percent (hscan + socet_chip);
        paper;
      ]
    in
    [
      mk "min area" p_min_area.Select.pt_area (List.nth paper_rows 0);
      mk "min TApp" p_min_tapp.Select.pt_area (List.nth paper_rows 1);
    ]
  in
  Ascii_table.print
    ~header:
      [
        "circuit";
        "orig";
        "FSCAN%";
        "HSCAN%";
        "BSCAN%";
        "SOCET%";
        "FB tot%";
        "SOCET tot%";
        "paper (SOCET% / FB vs SOCET tot)";
      ]
    (per_system "System 1" soc1 [ "2.0 / 24.0 vs 12.1"; "3.8 / 24.0 vs 13.9" ]
    @ per_system "System 2" soc2 [ "1.2 / 25.5 vs 11.5"; "4.7 / 25.5 vs 15.0" ])

(* ------------------------------------------------------------------ *)
(* Table 3: testability                                                *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "Table 3: testability results";
  let per_system name soc paper =
    let orig = Testgen.sequential_coverage soc ~cycles:512 () in
    let hscan_only =
      Testgen.sequential_coverage soc ~with_core_scan:true ~cycles:512 ()
    in
    let full = Testgen.scan_access_coverage soc in
    let fb = Baseline.evaluate soc in
    let p_min_area = Select.evaluate soc ~choice:(all_v1 soc) () in
    let p_min_lat = Select.evaluate soc ~choice:(all_v3 soc) () in
    let p_min_tapp = min_tapp_point soc ~max_area:(2 * p_min_lat.Select.pt_area) in
    [
      [
        name;
        pct orig.Testgen.fc;
        pct hscan_only.Testgen.fc;
        pct full.Testgen.fc;
        string_of_int fb.Baseline.b_time;
        pct full.Testgen.fc;
        string_of_int p_min_area.Select.pt_time;
        string_of_int p_min_tapp.Select.pt_time;
        paper;
      ];
    ]
  in
  Ascii_table.print
    ~header:
      [
        "circuit";
        "Orig FC%";
        "HSCAN FC%";
        "FB FC%";
        "FB TApp";
        "SOCET FC%";
        "SOCET TApp(minA)";
        "SOCET TApp(minT)";
        "paper (Orig/HSCAN/FB/SOCET)";
      ]
    (per_system "System 1" soc1 "10.6 / 14.6 / 98.4@36,152 / 98.4@17,387-3,806"
    @ per_system "System 2" soc2 "11.2 / 13.8 / 98.2@46,394 / 98.2@16,435-3,998")

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablation: SOCET vs test-bus degeneration (every port on a mux)";
  let bus_smuxes soc =
    List.concat_map
      (fun ci ->
        List.map
          (fun (p : Rtl_core.port) ->
            {
              Schedule.sm_inst = ci.Soc.ci_name;
              sm_port = p.Rtl_core.p_name;
              sm_dir = (match p.Rtl_core.p_dir with `In -> `In | `Out -> `Out);
            })
          (Rtl_core.ports ci.Soc.ci_core))
      soc.Soc.insts
  in
  let rows =
    List.map
      (fun (name, soc) ->
        let socet = Select.evaluate soc ~choice:(all_v1 soc) () in
        let bus =
          Select.evaluate soc ~choice:(all_v1 soc) ~smuxes:(bus_smuxes soc) ()
        in
        [
          name;
          string_of_int socet.Select.pt_area;
          string_of_int socet.Select.pt_time;
          string_of_int bus.Select.pt_area;
          string_of_int bus.Select.pt_time;
          Printf.sprintf "%.1fx"
            (float_of_int bus.Select.pt_area /. float_of_int socet.Select.pt_area);
        ])
      [ ("System 1", soc1); ("System 2", soc2) ]
  in
  Ascii_table.print
    ~header:[ "system"; "SOCET area"; "SOCET TAT"; "bus area"; "bus TAT"; "area ratio" ]
    rows;
  section "Ablation: iterative improvement trajectory (objective i, System 1)";
  let traj = Select.minimize_time soc1 ~max_area:400 in
  Ascii_table.print
    ~header:[ "step"; "versions"; "smuxes"; "area"; "TAT" ]
    (List.mapi
       (fun i p ->
         [
           string_of_int i;
           String.concat " "
             (List.map (fun (n, k) -> Printf.sprintf "%s=%d" n k) p.Select.pt_choice);
           string_of_int (List.length p.Select.pt_smuxes);
           string_of_int p.Select.pt_area;
           string_of_int p.Select.pt_time;
         ])
       traj);
  section "Ablation: HSCAN shift multiplier vs FSCAN chain (per core)";
  Ascii_table.print
    ~header:
      [ "core"; "ATPG vec"; "HSCAN depth"; "HSCAN vec"; "FSCAN time"; "HSCAN gain" ]
    (List.map
       (fun ci ->
         let v = Soc.atpg_vectors ci in
         let nff = List.length (Socet_netlist.Netlist.dffs ci.Soc.ci_netlist) in
         let fscan_t = Socet_scan.Fscan.test_time ~n_ff:nff ~n_vectors:v in
         let hscan_v = Soc.hscan_vectors ci in
         [
           ci.Soc.ci_name;
           string_of_int v;
           string_of_int ci.Soc.ci_hscan.Socet_scan.Hscan.depth;
           string_of_int hscan_v;
           string_of_int fscan_t;
           Printf.sprintf "%.1fx" (float_of_int fscan_t /. float_of_int hscan_v);
         ])
       (soc1.Soc.insts @ soc2.Soc.insts))

let ablations_extensions () =
  section "Ablation: conventional test bus vs SOCET (chip-level hardware)";
  Ascii_table.print
    ~header:[ "system"; "bus muxes"; "bus TAT"; "SOCET chip DFT"; "SOCET TAT" ]
    (List.map
       (fun (name, soc) ->
         let bus = Baseline.test_bus soc in
         let s = Schedule.build soc ~choice:(all_v1 soc) () in
         [
           name;
           string_of_int bus.Baseline.tb_mux_overhead;
           string_of_int bus.Baseline.tb_time;
           string_of_int s.Schedule.s_area_overhead;
           string_of_int s.Schedule.s_total_time;
         ])
       [ ("System 1", soc1); ("System 2", soc2) ]);
  Printf.printf
    "(The bus also leaves the core-to-core interconnect untested, as the\n\
     paper notes in its introduction.)\n";
  section "Ablation: sequential vs overlapped test scheduling (extension)";
  let soc3 = Systems.system3 () in
  Ascii_table.print
    ~header:[ "system"; "sequential TAT"; "overlapped makespan"; "speedup" ]
    (List.map
       (fun (name, soc) ->
         let s = Schedule.build soc ~choice:(all_v1 soc) () in
         let makespan, _ = Schedule.parallel_makespan s in
         [
           name;
           string_of_int s.Schedule.s_total_time;
           string_of_int makespan;
           Printf.sprintf "%.2fx"
             (float_of_int s.Schedule.s_total_time /. float_of_int makespan);
         ])
       [ ("System 1 (chain)", soc1); ("System 2 (chain)", soc2);
         ("System 3 (3 islands)", soc3) ]);
  section "Ablation: D-algorithm vs PODEM (sampled faults, small cores)";
  Ascii_table.print
    ~header:
      [ "core"; "D-alg cov%"; "D-alg eff%"; "PODEM cov%"; "PODEM eff%"; "note" ]
    (List.map
       (fun core ->
         let nl = Socet_synth.Elaborate.core_to_netlist core in
         let d = Socet_atpg.Dalg.run ~sample:13 ~decision_limit:4000 nl in
         let p = Socet_atpg.Podem.run nl in
         [
           Rtl_core.name core;
           pct d.Socet_atpg.Dalg.coverage;
           pct d.Socet_atpg.Dalg.efficiency;
           pct p.Socet_atpg.Podem.coverage;
           pct p.Socet_atpg.Podem.efficiency;
           "single-path sensitization";
         ])
       [ Gcd_core.core (); X25.core () ]);
  section "Ablation: SCOAP-guided vs unguided PODEM";
  Ascii_table.print
    ~header:[ "core"; "guided vec"; "guided abort"; "unguided vec"; "unguided abort" ]
    (List.map
       (fun core ->
         let nl = Socet_synth.Elaborate.core_to_netlist core in
         let w = Socet_atpg.Podem.run ~use_scoap:true nl in
         let wo = Socet_atpg.Podem.run ~use_scoap:false nl in
         [
           Rtl_core.name core;
           string_of_int (List.length w.Socet_atpg.Podem.vectors);
           string_of_int (List.length w.Socet_atpg.Podem.aborted);
           string_of_int (List.length wo.Socet_atpg.Podem.vectors);
           string_of_int (List.length wo.Socet_atpg.Podem.aborted);
         ])
       [ Cpu.core (); Gcd_core.core (); X25.core () ])

let bist_section () =
  section "Memory BIST (the paper's RAM/ROM substitution, ref [8])";
  let open Socet_bist in
  Ascii_table.print
    ~header:[ "algorithm"; "ops/cell"; "fault coverage %"; "stuck-at"; "transition"; "coupling"; "decoder" ]
    (List.map
       (fun (name, alg) ->
         let r = March.evaluate ~words:64 ~width:8 ~name alg in
         let cls c =
           match List.find_opt (fun (n, _, _) -> n = c) r.March.by_class with
           | Some (_, d, t) -> Printf.sprintf "%d/%d" d t
           | None -> "-"
         in
         [
           name;
           string_of_int (March.op_count alg);
           pct r.March.coverage;
           cls "stuck-at";
           cls "transition";
           cls "coupling";
           cls "decoder";
         ])
       [ ("March C-", March.march_c_minus); ("MATS+", March.mats_plus) ]);
  List.iter
    (fun m ->
      Printf.printf "%s: %d bits, BIST controller %d cells\n" m.Soc.m_name
        m.Soc.m_bits m.Soc.m_bist_area)
    soc1.Soc.memories;
  section "Logic BIST (LFSR/MISR) vs deterministic ATPG (per core)";
  Ascii_table.print
    ~header:
      [ "core"; "BIST cov% (1024 pat)"; "ATPG cov%"; "ATPG vectors"; "MISR aliasing" ]
    (List.map
       (fun ci ->
         let r = Logic_bist.run ~patterns:1024 ci.Soc.ci_netlist in
         let a = Lazy.force ci.Soc.ci_atpg in
         [
           ci.Soc.ci_name;
           pct r.Logic_bist.coverage;
           pct a.Socet_atpg.Podem.coverage;
           string_of_int (List.length a.Socet_atpg.Podem.vectors);
           Printf.sprintf "%d/%d sampled" r.Logic_bist.aliased
             r.Logic_bist.aliasing_sampled;
         ])
       soc1.Soc.insts)

let diagnosis_section () =
  section "Diagnosis: dictionary resolution per core (detection set + 32 diag vectors)";
  Ascii_table.print
    ~header:[ "core"; "faults"; "det vec"; "resolution %"; "planted defects found" ]
    (List.map
       (fun ci ->
         let nl = ci.Soc.ci_netlist in
         let faults = Socet_atpg.Fault.collapse nl in
         let stats = Lazy.force ci.Soc.ci_atpg in
         let rng = Rng.create 17 in
         let extra =
           List.init 32 (fun _ ->
               Rng.bitvec rng (Socet_atpg.Fsim.vector_length nl))
         in
         let vectors = stats.Socet_atpg.Podem.vectors @ extra in
         let dict = Socet_atpg.Diagnose.build nl ~vectors ~faults in
         (* Plant every 29th fault and check it is recovered exactly. *)
         let planted = ref 0 and found = ref 0 in
         List.iteri
           (fun i fault ->
             if i mod 29 = 0 then begin
               incr planted;
               let observed = Socet_atpg.Diagnose.observe nl ~vectors ~fault in
               let cands = Socet_atpg.Diagnose.diagnose dict observed in
               if
                 List.exists
                   (fun (f, d) -> d = 0 && Socet_atpg.Fault.equal f fault)
                   cands
               then incr found
             end)
           faults;
         [
           ci.Soc.ci_name;
           string_of_int (List.length faults);
           string_of_int (List.length stats.Socet_atpg.Podem.vectors);
           pct (Socet_atpg.Diagnose.distinguishable dict);
           Printf.sprintf "%d/%d" !found !planted;
         ])
       soc2.Soc.insts);
  section "Test points: SCOAP-guided insertion vs random-pattern coverage";
  Ascii_table.print
    ~header:[ "core"; "before %"; "after % (8 points)"; "cost (cells)" ]
    (List.map
       (fun mk_name ->
         let name, mk = mk_name in
         let before, after =
           Socet_atpg.Testpoint.coverage_gain
             ~mk:(fun () -> Socet_synth.Elaborate.core_to_netlist (mk ()))
             ~budget:8 ~patterns:96
         in
         let nl = Socet_synth.Elaborate.core_to_netlist (mk ()) in
         let pts =
           Socet_atpg.Testpoint.propose nl (Socet_atpg.Scoap.compute nl) ~budget:8
         in
         [
           name;
           pct before;
           pct after;
           string_of_int (Socet_atpg.Testpoint.area_cost pts);
         ])
       [ ("GCD", Gcd_core.core); ("X25", X25.core) ])

(* ------------------------------------------------------------------ *)
(* Resilience: degradation ladders under injected failure              *)
(* ------------------------------------------------------------------ *)

let resilience_section () =
  section "Resilience: degradation ladders (robustness extension)";
  (* Per-fault ladder: a starvation-level PODEM backtrack limit forces
     aborts, so the D-algorithm rescue and random top-off rungs fire. *)
  let nl = Socet_synth.Elaborate.core_to_netlist (Cpu.core ()) in
  let faults = Socet_atpg.Fault.collapse nl in
  let tally = Hashtbl.create 4 in
  List.iter
    (fun f ->
      let r = Resilient.generate_fault ~backtrack_limit:1 nl f in
      let key =
        match (r.Resilient.a_rung, r.Resilient.a_outcome) with
        | Resilient.R_podem, _ -> "PODEM"
        | Resilient.R_dalg, _ -> "D-alg rescue"
        | Resilient.R_random, Socet_atpg.Podem.Test _ -> "random top-off"
        | Resilient.R_random, _ -> "still aborted"
      in
      Hashtbl.replace tally key (1 + Option.value ~default:0 (Hashtbl.find_opt tally key)))
    faults;
  Ascii_table.print
    ~header:[ "rung (CPU core, backtrack limit 1)"; "faults resolved" ]
    (List.filter_map
       (fun k ->
         Option.map (fun v -> [ k; string_of_int v ]) (Hashtbl.find_opt tally k))
       [ "PODEM"; "D-alg rescue"; "random top-off"; "still aborted" ]);
  (* Per-core ladder: fail every access-routing site and check the chip
     plan still comes out whole, every core on the FSCAN-BSCAN rung. *)
  let show label plan_result =
    match plan_result with
    | Ok p ->
        Printf.printf
          "%s: %d/%d core(s) on FSCAN-BSCAN fallback, TAT %d cycles, area %d cells\n"
          label p.Resilient.p_fallbacks
          (List.length p.Resilient.p_cores)
          p.Resilient.p_total_time p.Resilient.p_area_overhead
    | Error e -> Printf.printf "%s: %s\n" label (Error.to_string e)
  in
  show "clean plan" (Resilient.plan soc1 ~choice:(all_v1 soc1) ());
  Chaos.configure ~seed:7 ~prob:1.0 ~only:[ "core.access" ] true;
  show "all access routing failed" (Resilient.plan soc1 ~choice:(all_v1 soc1) ());
  Chaos.configure false;
  show "recovered (chaos off)" (Resilient.plan soc1 ~choice:(all_v1 soc1) ())

(* ------------------------------------------------------------------ *)
(* Wrapper/TAM backend vs the paper's CCG flow                         *)
(* ------------------------------------------------------------------ *)

let tam_section () =
  section "Wrapper/TAM backend: TAT vs chip DFT area against the CCG flow";
  let module B = Socet_tam.Backend in
  let outcome = function
    | Ok p -> (p.B.p_total_time, p.B.p_area_overhead)
    | Error e -> failwith (Error.to_string e)
  in
  Ascii_table.print
    ~header:
      [ "system"; "ccg TAT"; "ccg area"; "tam TAT"; "tam area"; "tam speedup" ]
    (List.map
       (fun (label, soc) ->
         let ct, ca = outcome (B.Ccg_backend.plan soc) in
         let tt, ta = outcome (B.Tam_backend.plan soc) in
         [
           label;
           string_of_int ct;
           string_of_int ca;
           string_of_int tt;
           string_of_int ta;
           Printf.sprintf "%.2fx" (float_of_int ct /. float_of_int (max 1 tt));
         ])
       [ ("system1", soc1); ("system2", soc2) ]);
  let count = 120 and seed = 2026 in
  Printf.printf
    "\nrandom-SOC fleet (%d heterogeneous SOCs, seed %d, both backends):\n"
    count seed;
  let entries = Socet_tam.Fleet.run ~seed ~count () in
  let s = Socet_tam.Fleet.summarize entries in
  print_string (Socet_tam.Fleet.render entries);
  if s.Socet_tam.Fleet.s_failures > 0 || s.Socet_tam.Fleet.s_issues > 0 then
    failwith "tam fleet produced failures or replay violations"

let () =
  Printf.printf "SOCET paper reproduction (DAC'98 Ghosh/Dey/Jha)\n";
  Printf.printf "Systems: %s (%d cells), %s (%d cells)\n" soc1.Soc.soc_name
    (Soc.original_area soc1) soc2.Soc.soc_name (Soc.original_area soc2);
  worked_example ();
  fig6 ();
  fig8 ();
  fig10 ();
  table1 ();
  table2 ();
  table3 ();
  ablations ();
  ablations_extensions ();
  bist_section ();
  diagnosis_section ();
  resilience_section ();
  tam_section ()
