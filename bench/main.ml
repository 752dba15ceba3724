(* Regenerates every table and figure of the paper's evaluation (DAC'98,
   Ghosh/Dey/Jha) on the reproduced systems, printing paper values next to
   measured ones, and finishes with Bechamel micro-benchmarks of the
   engines.  See EXPERIMENTS.md for the paper-vs-measured discussion. *)

open Socet_util
open Socet_rtl
open Socet_core
open Socet_cores
module Obs = Socet_obs.Obs
module Json = Socet_obs.Json

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
(* Engine sections                                                     *)
(* ------------------------------------------------------------------ *)

(* From here on each section prints its table and returns its
   [(key, value)] entry of BENCH_socet.json. *)

let int n = Json.Num (float_of_int n)
let flag b = Json.Num (if b then 1.0 else 0.0)

(* Best of three wall-clock runs of [f], in seconds, with the last
   result. *)
let time_best f =
  let best = ref infinity and last = ref None in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    last := Some (f ());
    best := min !best (Unix.gettimeofday () -. t0)
  done;
  (!best, Option.get !last)

(* The library exporter's metrics snapshot ({counters, gauges, timers,
   histograms}) as JSON fields. *)
let obs_snapshot () =
  match Json.of_string (Obs.stats_json ()) with
  | Ok (Json.Obj fields) -> fields
  | Ok _ | Error _ -> failwith "Obs.stats_json did not export a JSON object"

(* ------------------------------------------------------------------ *)
(* Optimizer: memoized vs oracle iterative improvement                 *)
(* ------------------------------------------------------------------ *)

let optimizer_section () =
  section "Optimizer: memoized vs oracle minimize_time (max_area 600)";
  let run soc ~use_memo =
    let c0 = Obs.snapshot_counters () in
    let t0 = Unix.gettimeofday () in
    ignore (Select.minimize_time ~use_memo soc ~max_area:600);
    let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let c1 = Obs.snapshot_counters () in
    let delta name =
      Option.value ~default:0 (List.assoc_opt name c1)
      - Option.value ~default:0 (List.assoc_opt name c0)
    in
    ( wall_ms,
      delta "core.select.opt_steps",
      delta "core.schedule.full_builds",
      delta "core.select.opt_memo_hits" )
  in
  let results =
    List.map
      (fun soc ->
        ( soc.Soc.soc_name,
          List.map
            (fun (mode, use_memo) -> (mode, run soc ~use_memo))
            [ ("memoized", true); ("oracle", false) ] ))
      [ soc1; soc2 ]
  in
  Ascii_table.print
    ~header:
      [ "system"; "mode"; "wall (ms)"; "opt steps"; "full builds"; "memo hits" ]
    (List.concat_map
       (fun (system, modes) ->
         List.map
           (fun (mode, (wall_ms, steps, full_builds, memo_hits)) ->
             [
               system;
               mode;
               Printf.sprintf "%.1f" wall_ms;
               string_of_int steps;
               string_of_int full_builds;
               string_of_int memo_hits;
             ])
           modes)
       results);
  Printf.printf
    "Same trajectories either way (test_select enforces bit-identity); the \
     memo replaces full schedule builds with per-core route reuse.\n";
  ( "optimizer",
    Json.Obj
      (List.map
         (fun (system, modes) ->
           ( system,
             Json.Obj
               (List.map
                  (fun (mode, (wall_ms, steps, full_builds, memo_hits)) ->
                    ( mode,
                      Json.Obj
                        [
                          ("wall_ms", Json.Num wall_ms);
                          ("steps", int steps);
                          ("full_builds", int full_builds);
                          ("memo_hits", int memo_hits);
                        ] ))
                  modes) ))
         results) )

(* ------------------------------------------------------------------ *)
(* Parallel scaling: domain-pool sweep                                 *)
(* ------------------------------------------------------------------ *)

(* Cheapest domain count actually measured for this workload — the
   per-engine recommendation the JSON carries (on a 1-core runner this
   is honestly 1; speedup gates key on hw_domains instead). *)
let argmin_domains times =
  fst
    (List.fold_left
       (fun (bd, bt) (d, t) -> if t < bt then (d, t) else (bd, bt))
       (1, infinity) times)

let parallel_section () =
  section "Parallel scaling: fault simulation and design-space search";
  (* Each engine thunk returns a digest of its full result, so the sweep
     checks the determinism contract (byte-identical at any domain
     count) on the exact workloads it times. *)
  let sweep f =
    let runs =
      List.map
        (fun d ->
          Pool.set_size d;
          let t, dg = time_best f in
          ((d, t), dg))
        [ 1; 2; 4 ]
    in
    Pool.set_size 1;
    let identical =
      match runs with
      | (_, first) :: rest -> List.for_all (fun (_, dg) -> dg = first) rest
      | [] -> true
    in
    (List.map fst runs, identical)
  in
  let cpu = Soc.inst soc1 "CPU" in
  let nl = cpu.Soc.ci_netlist in
  let faults = Socet_atpg.Fault.collapse nl in
  let rng = Rng.create 4242 in
  let vecs =
    List.init 64 (fun _ -> Rng.bitvec rng (Socet_atpg.Fsim.vector_length nl))
  in
  let digest_of v = Digest.to_hex (Digest.string (Marshal.to_string v [])) in
  let fault_sig fs =
    List.map
      (fun (f : Socet_atpg.Fault.t) ->
        (f.Socet_atpg.Fault.f_net, f.Socet_atpg.Fault.f_stuck))
      fs
  in
  let design_space soc () =
    digest_of
      (List.map
         (fun (p : Select.point) ->
           ( p.Select.pt_choice,
             p.Select.pt_area,
             p.Select.pt_time,
             p.Select.pt_schedule.Schedule.s_total_time ))
         (Select.design_space soc))
  in
  let results =
    List.map
      (fun (name, f) -> (name, sweep f))
      [
        ( "fsim CPU (64 vec, full fault list)",
          fun () ->
            digest_of (fault_sig (Socet_atpg.Fsim.run_comb nl ~vectors:vecs ~faults)) );
        ("design space System 1", design_space soc1);
        ("design space System 2", design_space soc2);
      ]
  in
  let speedup_4 times = List.assoc 1 times /. List.assoc 4 times in
  Ascii_table.print
    ~header:
      [
        "engine"; "1 dom (ms)"; "2 dom (ms)"; "4 dom (ms)"; "speedup@4";
        "identical";
      ]
    (List.map
       (fun (name, (times, identical)) ->
         (name
         :: List.map (fun (_, t) -> Printf.sprintf "%.1f" (t *. 1000.0)) times)
         @ [
             Printf.sprintf "%.2fx" (speedup_4 times);
             (if identical then "yes" else "NO");
           ])
       results);
  Printf.printf
    "(identical = result digests match across 1/2/4 domains; this machine\n\
     has %d hardware domains)\n"
    (Domain.recommended_domain_count ());
  (* Overall recommendation: the domain count with the lowest summed wall
     time across the swept engines, recomputed from this run's
     measurements — not a pinned hardware guess.  hw_domains is what the
     machine offers; the CI speedup gates only apply when it is high
     enough to scale. *)
  let summed =
    List.fold_left
      (fun acc (_, (times, _)) ->
        List.map (fun (d, t) -> (d, t +. List.assoc d times)) acc)
      [ (1, 0.0); (2, 0.0); (4, 0.0) ]
      results
  in
  ( "parallel",
    Json.Obj
      (("hw_domains", int (Domain.recommended_domain_count ()))
      :: ("recommended_domains", int (argmin_domains summed))
      :: List.map
           (fun (name, (times, identical)) ->
             ( name,
               Json.Obj
                 (List.map
                    (fun (d, t) ->
                      (Printf.sprintf "ms_%d_domains" d, Json.Num (t *. 1000.0)))
                    times
                 @ [
                     ("speedup_4", Json.Num (speedup_4 times));
                     ("recommended_domains", int (argmin_domains times));
                     ("byte_identical", flag identical);
                   ]) ))
           results) )

(* ------------------------------------------------------------------ *)
(* Fault-simulation kernel: flat vs legacy engine                      *)
(* ------------------------------------------------------------------ *)

let fsim_kernel_section () =
  section "Fault-simulation kernel: flat struct-of-arrays vs legacy engine";
  Pool.set_size 1;
  let counter name =
    Option.value ~default:0 (List.assoc_opt name (Obs.snapshot_counters ()))
  in
  let cpu = Soc.inst soc1 "CPU" in
  let nl = cpu.Soc.ci_netlist in
  let faults = Socet_atpg.Fault.collapse nl in
  let rng = Rng.create 31337 in
  let vecs =
    List.init 64 (fun _ -> Rng.bitvec rng (Socet_atpg.Fsim.vector_length nl))
  in
  (* Work unit: one fault x word-batch cone evaluation.  Both engines
     drop detected faults identically, so one counted run gives the eval
     count for either. *)
  let e0 = counter "atpg.fsim.fault_evals" in
  let flat_det = Socet_atpg.Fsim.run_comb nl ~vectors:vecs ~faults in
  let evals = counter "atpg.fsim.fault_evals" - e0 in
  let legacy_det = Socet_atpg.Fsim.run_comb_ref nl ~vectors:vecs ~faults in
  let identical = flat_det = legacy_det in
  let t_flat, _ =
    time_best (fun () -> Socet_atpg.Fsim.run_comb nl ~vectors:vecs ~faults)
  in
  let t_legacy, _ =
    time_best (fun () -> Socet_atpg.Fsim.run_comb_ref nl ~vectors:vecs ~faults)
  in
  let per_s t = float_of_int evals /. t in
  let engines =
    [
      ("flat", (t_flat *. 1000.0, per_s t_flat));
      ("legacy", (t_legacy *. 1000.0, per_s t_legacy));
    ]
  in
  let speedup = t_legacy /. t_flat in
  Ascii_table.print
    ~header:[ "engine"; "fault evals"; "wall (ms)"; "evals/s" ]
    (List.map
       (fun (name, (ms, eps)) ->
         [
           name;
           string_of_int evals;
           Printf.sprintf "%.2f" ms;
           Printf.sprintf "%.0f" eps;
         ])
       engines);
  Printf.printf "kernel speedup (single domain): %.1fx; detected lists %s\n"
    speedup
    (if identical then "byte-identical" else "DIFFER (BUG)");
  (match List.assoc_opt "atpg.fsim.cone_gates" (Obs.snapshot_histograms ()) with
  | Some s ->
      Printf.printf
        "cone sizes (gates per fault site, %d sites built): min %.0f p50 %.0f \
         p90 %.0f p99 %.0f max %.0f\n"
        s.Socet_obs.Histogram.s_count s.Socet_obs.Histogram.s_min
        s.Socet_obs.Histogram.s_p50 s.Socet_obs.Histogram.s_p90
        s.Socet_obs.Histogram.s_p99 s.Socet_obs.Histogram.s_max
  | None -> ());
  if not identical then failwith "flat kernel diverged from the legacy engine";
  let cone_gates =
    Option.bind
      (List.assoc_opt "histograms" (obs_snapshot ()))
      (Json.member "atpg.fsim.cone_gates")
  in
  ( "fsim_kernel",
    Json.Obj
      (List.map
         (fun (name, (ms, eps)) ->
           ( name,
             Json.Obj [ ("wall_ms", Json.Num ms); ("evals_per_s", Json.Num eps) ]
           ))
         engines
      @ [ ("speedup", Json.Num speedup); ("byte_identical", flag identical) ]
      @ Option.fold ~none:[] ~some:(fun h -> [ ("cone_gates", h) ]) cone_gates)
  )

(* ------------------------------------------------------------------ *)
(* Job server: throughput/latency through the wire protocol            *)
(* ------------------------------------------------------------------ *)

module Serve = Socet_serve

type load = {
  l_jobs : int;
  l_done : int;  (** jobs answered Ok with exit code 0 *)
  l_jobs_per_s : float;
  l_p50_ms : float;
  l_p99_ms : float;
}

(* Closed-loop load: [clients] threads, each on its own connection, send
   [reqs] back to back.  A job counts as done only on an Ok reply with
   exit code 0; a client that cannot connect fails all of its jobs. *)
let closed_loop ~socket ~clients reqs =
  let per_client = List.length reqs in
  let n = clients * per_client in
  let lat = Array.make n 0.0 in
  let completed = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun ci ->
        Thread.create
          (fun () ->
            match Serve.Client.connect socket with
            | Error _ -> ()
            | Ok c ->
                List.iteri
                  (fun i req ->
                    let s = Unix.gettimeofday () in
                    (match Serve.Client.request c req with
                    | Ok r when r.Serve.Client.r_code = 0 -> Atomic.incr completed
                    | Ok _ | Error _ -> ());
                    lat.((ci * per_client) + i) <-
                      (Unix.gettimeofday () -. s) *. 1000.0)
                  reqs;
                Serve.Client.close c)
          ())
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  Array.sort compare lat;
  let quantile q = lat.(min (n - 1) (int_of_float (q *. float_of_int (n - 1)))) in
  {
    l_jobs = n;
    l_done = Atomic.get completed;
    l_jobs_per_s = float_of_int n /. wall;
    l_p50_ms = quantile 0.5;
    l_p99_ms = quantile 0.99;
  }

let require_all label l =
  if l.l_done < l.l_jobs then
    failwith
      (Printf.sprintf "%s: %d of %d jobs failed" label (l.l_jobs - l.l_done)
         l.l_jobs)

let explore_req system =
  Serve.Proto.make
    (Serve.Proto.Explore
       {
         Serve.Proto.ex_system = system;
         ex_objective = Serve.Proto.Min_time;
         ex_max_area = 500;
         ex_max_time = 5000;
         ex_search_budget = None;
         ex_no_memo = false;
       })

(* One row of the serve tables, and its JSON entry. *)
let load_row key l =
  [
    string_of_int key;
    string_of_int l.l_jobs;
    Printf.sprintf "%.1f" l.l_jobs_per_s;
    Printf.sprintf "%.1f" l.l_p50_ms;
    Printf.sprintf "%.1f" l.l_p99_ms;
  ]

let load_json l =
  Json.Obj
    [
      ("jobs_per_s", Json.Num l.l_jobs_per_s);
      ("p50_ms", Json.Num l.l_p50_ms);
      ("p99_ms", Json.Num l.l_p99_ms);
    ]

(* [fleet] is the supervised-fleet section's entry, nested under
   "serve". *)
let serve_section ~fleet =
  section "Job server: explore jobs through the wire protocol (in-process)";
  let socket =
    Filename.concat (Filename.get_temp_dir_name ()) "socet-bench.sock"
  in
  let srv = Serve.Server.start ~queue_depth:64 ~socket () in
  let clients = 4 in
  let reqs = List.init 4 (fun _ -> explore_req "system1") in
  let runs =
    List.map
      (fun domains ->
        Pool.set_size domains;
        let l = closed_loop ~socket ~clients reqs in
        require_all "serve" l;
        (domains, l))
      [ 1; 4 ]
  in
  Pool.set_size 1;
  Serve.Server.shutdown srv;
  ignore (Serve.Server.wait srv);
  Ascii_table.print
    ~header:[ "domains"; "jobs"; "jobs/s"; "p50 ms"; "p99 ms" ]
    (List.map (fun (d, l) -> load_row d l) runs);
  Printf.printf
    "(%d concurrent clients, FIFO queue, responses byte-identical to the\n\
     direct CLI; per-job parallelism comes from the domain pool)\n"
    clients;
  ( "serve",
    Json.Obj
      (List.map (fun (d, l) -> (Printf.sprintf "%d_domains" d, load_json l)) runs
      @ [ ("fleet", fleet) ]) )

(* ------------------------------------------------------------------ *)
(* Job server: supervised worker fleet                                 *)
(* ------------------------------------------------------------------ *)

(* Must run before any section that sizes the domain pool above 1:
   OCaml forbids fork in a process that has ever spawned a domain, and
   the fleet fork+execs its workers. *)
let serve_fleet_section () =
  section "Job server: supervised worker fleet (fork+exec isolation)";
  Pool.set_size 1;
  let socket =
    Filename.concat (Filename.get_temp_dir_name ()) "socet-bench-fleet.sock"
  in
  (* System 2: each worker process (and each respawn) pays a cold
     search, so the cheaper system keeps the section's wall time about
     the fleet machinery rather than the optimizer. *)
  let measure () =
    closed_loop ~socket ~clients:2 (List.init 4 (fun _ -> explore_req "system2"))
  in
  (* max_retries >= the chaos trip budget below, so even every kill
     landing on one job stays within its retry budget. *)
  let with_fleet workers f =
    let srv = Serve.Server.start ~queue_depth:64 ~workers ~max_retries:3 ~socket () in
    Fun.protect
      ~finally:(fun () ->
        Serve.Server.shutdown srv;
        ignore (Serve.Server.wait srv))
      f
  in
  let runs =
    List.map
      (fun workers ->
        with_fleet workers (fun () ->
            let l = measure () in
            require_all "serve fleet" l;
            (workers, l)))
      [ 1; 4 ]
  in
  Ascii_table.print
    ~header:[ "workers"; "jobs"; "jobs/s"; "p50 ms"; "p99 ms" ]
    (List.map (fun (w, l) -> load_row w l) runs);
  (* Availability under injected crashes: SIGKILL the dispatched worker
     for the first [kills] jobs; every job must still settle Ok. *)
  let kills = 3 in
  Socet_util.Chaos.configure ~prob:1.0 ~only:[ "serve.worker.kill" ] ~max_trips:kills
    true;
  let availability =
    Fun.protect ~finally:(fun () -> Socet_util.Chaos.configure false) (fun () ->
        with_fleet 2 (fun () ->
            let l = measure () in
            let retries =
              match Serve.Client.connect socket with
              | Error _ -> 0
              | Ok c ->
                  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
                      match Serve.Client.request c (Serve.Proto.make Serve.Proto.Health) with
                      | Ok r -> (
                          match Serve.Proto.decode_health (String.trim r.Serve.Client.r_stdout) with
                          | Ok h -> h.Serve.Proto.hl_retries
                          | Error _ -> 0)
                      | Error _ -> 0)
            in
            Printf.printf
              "availability under crash: %d/%d jobs completed with %d injected \
               worker kills (%d retried)\n"
              l.l_done l.l_jobs kills retries;
            Json.Obj
              [
                ("jobs", int l.l_jobs);
                ("injected_kills", int kills);
                ("completed", int l.l_done);
                ( "availability",
                  Json.Num (float_of_int l.l_done /. float_of_int (max 1 l.l_jobs)) );
                ("retries", int retries);
              ]))
  in
  Json.Obj
    (List.map (fun (w, l) -> (Printf.sprintf "%d_workers" w, load_json l)) runs
    @ [ ("availability_under_crash", availability) ])

(* ------------------------------------------------------------------ *)
(* Wrapper/TAM backend vs the paper's CCG flow                         *)
(* ------------------------------------------------------------------ *)

let tam_fleet_count = 120
let tam_fleet_seed = 2026

let tam_section () =
  section "Wrapper/TAM backend: TAT vs chip DFT area against the CCG flow";
  let module B = Socet_tam.Backend in
  let plan_outcomes soc =
    let get (module M : B.CHIP_BACKEND) =
      match M.plan soc with
      | Ok p -> (p.B.p_total_time, p.B.p_area_overhead)
      | Error e -> failwith (Error.to_string e)
    in
    (get (module B.Ccg_backend), get (module B.Tam_backend))
  in
  let systems =
    List.map
      (fun (label, soc) -> (label, plan_outcomes soc))
      [ ("system1", soc1); ("system2", soc2) ]
  in
  Ascii_table.print
    ~header:
      [ "system"; "ccg TAT"; "ccg area"; "tam TAT"; "tam area"; "tam speedup" ]
    (List.map
       (fun (label, ((ct, ca), (tt, ta))) ->
         [
           label;
           string_of_int ct;
           string_of_int ca;
           string_of_int tt;
           string_of_int ta;
           Printf.sprintf "%.2fx" (float_of_int ct /. float_of_int (max 1 tt));
         ])
       systems);
  Printf.printf
    "\nrandom-SOC fleet (%d heterogeneous SOCs, seed %d, both backends):\n"
    tam_fleet_count tam_fleet_seed;
  let entries =
    Socet_tam.Fleet.run ~seed:tam_fleet_seed ~count:tam_fleet_count ()
  in
  let s = Socet_tam.Fleet.summarize entries in
  print_string (Socet_tam.Fleet.render entries);
  if s.Socet_tam.Fleet.s_failures > 0 || s.Socet_tam.Fleet.s_issues > 0 then
    failwith "tam fleet produced failures or replay violations";
  ( "tam",
    Json.Obj
      (List.map
         (fun (label, ((ct, ca), (tt, ta))) ->
           ( label,
             Json.Obj
               [
                 ("ccg_tat_cycles", int ct);
                 ("ccg_area_cells", int ca);
                 ("tam_tat_cycles", int tt);
                 ("tam_area_cells", int ta);
               ] ))
         systems
      @ [
          ( "fleet",
            Json.Obj
              [
                ("socs", int s.Socet_tam.Fleet.s_count);
                ("seed", int tam_fleet_seed);
                ("failures", int s.Socet_tam.Fleet.s_failures);
                ("replay_issues", int s.Socet_tam.Fleet.s_issues);
                ("ccg_mean_tat", Json.Num s.Socet_tam.Fleet.s_ccg_mean_time);
                ("ccg_mean_area", Json.Num s.Socet_tam.Fleet.s_ccg_mean_area);
                ("tam_mean_tat", Json.Num s.Socet_tam.Fleet.s_tam_mean_time);
                ("tam_mean_area", Json.Num s.Socet_tam.Fleet.s_tam_mean_area);
                ("tam_time_wins", int s.Socet_tam.Fleet.s_tam_time_wins);
              ] );
        ]) )

(* ------------------------------------------------------------------ *)
(* Persistent result cache: warm vs cold                               *)
(* ------------------------------------------------------------------ *)

let cache_section () =
  section "Persistent result cache: warm vs cold";
  let module Cache = Socet_cache.Cache in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let scoreboard_totals () =
    List.fold_left
      (fun (h, m) (_, h', m') -> (h + h', m + m'))
      (0, 0) (Cache.scoreboard ())
  in
  let hit_rate hits misses =
    float_of_int hits /. float_of_int (max 1 (hits + misses))
  in
  let tmp_dir tag =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "socet-bench-cache-%s-%d" tag (Unix.getpid ()))
  in
  (* Fleet: the tam section's 120-SOC workload, cold then warm against
     the same store.  Fleet.run keeps both replay oracles engaged, so a
     cache bug that changes any planned result fails here, not just the
     byte-diff. *)
  let fleet_dir = tmp_dir "fleet" in
  let store =
    match Cache.open_dir fleet_dir with
    | Ok s -> s
    | Error e -> failwith (Error.to_string e)
  in
  let run_fleet () =
    Cache.with_store (Some store) (fun () ->
        Socet_tam.Fleet.run ~seed:tam_fleet_seed ~count:tam_fleet_count ())
  in
  Cache.reset_scoreboard ();
  let cold_entries, cold_ms = time run_fleet in
  Cache.reset_scoreboard ();
  let warm_entries, warm_ms = time run_fleet in
  let hits, misses = scoreboard_totals () in
  let identical =
    String.equal
      (Socet_tam.Fleet.render cold_entries)
      (Socet_tam.Fleet.render warm_entries)
  in
  let check label entries =
    let s = Socet_tam.Fleet.summarize entries in
    if s.Socet_tam.Fleet.s_failures > 0 || s.Socet_tam.Fleet.s_issues > 0 then
      failwith (label ^ " cached fleet pass failed the replay oracle")
  in
  check "cold" cold_entries;
  check "warm" warm_entries;
  if not identical then failwith "warm fleet output differs from cold";
  let store_bytes = Socet_cache.Store.bytes_used store in
  Ascii_table.print
    ~header:[ "pass"; "wall ms"; "hits"; "misses"; "hit rate" ]
    [
      [ "cold"; Printf.sprintf "%.0f" cold_ms; "0"; "-"; "0.00" ];
      [
        "warm";
        Printf.sprintf "%.0f" warm_ms;
        string_of_int hits;
        string_of_int misses;
        Printf.sprintf "%.2f" (hit_rate hits misses);
      ];
    ];
  Printf.printf
    "warm/cold = %.2f (acceptance: <= 0.50); outputs byte-identical; store %d KiB\n"
    (warm_ms /. cold_ms)
    (store_bytes / 1024);
  (* Serve path: the same chip and atpg jobs through the wire protocol
     with the request-level cache field, one sequential client, two
     passes. *)
  let serve_dir = tmp_dir "serve" in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ()) "socet-bench-cache.sock"
  in
  let srv = Serve.Server.start ~queue_depth:16 ~socket () in
  let chip system backend =
    Serve.Proto.Chip
      { Serve.Proto.ch_system = system; ch_strict = false; ch_backend = backend }
  in
  let reqs =
    List.map
      (fun body -> Serve.Proto.make ~cache:serve_dir body)
      [
        chip "system1" Serve.Proto.Ccg;
        chip "system1" Serve.Proto.Tam;
        chip "system2" Serve.Proto.Ccg;
        chip "system2" Serve.Proto.Tam;
        Serve.Proto.Atpg { Serve.Proto.at_core = "cpu" };
        Serve.Proto.Atpg { Serve.Proto.at_core = "gcd" };
        Serve.Proto.Atpg { Serve.Proto.at_core = "display" };
        Serve.Proto.Atpg { Serve.Proto.at_core = "preprocessor" };
      ]
  in
  let run_pass label =
    let l = closed_loop ~socket ~clients:1 reqs in
    require_all ("cache serve " ^ label ^ " pass") l;
    l.l_jobs_per_s
  in
  let cold_jobs_s = run_pass "cold" in
  Cache.reset_scoreboard ();
  let warm_jobs_s = run_pass "warm" in
  let sh, sm = scoreboard_totals () in
  let serve_hit_rate = hit_rate sh sm in
  Serve.Server.shutdown srv;
  ignore (Serve.Server.wait srv);
  Printf.printf
    "serve (%d chip jobs, request-level cache field): cold %.1f jobs/s, \
     warm %.1f jobs/s, warm hit rate %.2f\n"
    (List.length reqs) cold_jobs_s warm_jobs_s serve_hit_rate;
  (* Warm fleet under >= 4 pool domains: only meaningful with >= 4
     hardware threads, so gate on the runner. *)
  let hw = Stdlib.Domain.recommended_domain_count () in
  let domain_scaling =
    if hw >= 4 then begin
      Pool.set_size 4;
      let entries, ms = time run_fleet in
      Pool.set_size 1;
      if
        not
          (String.equal
             (Socet_tam.Fleet.render cold_entries)
             (Socet_tam.Fleet.render entries))
      then failwith "4-domain warm fleet output differs from cold";
      Printf.printf "warm fleet at 4 domains: %.0f ms (byte-identical)\n" ms;
      [ ("skipped", flag false); ("warm_ms_4_domains", Json.Num ms) ]
    end
    else begin
      Printf.printf
        "(>=4-domain warm pass skipped: runner reports %d hardware thread(s))\n"
        hw;
      [ ("skipped", flag true); ("hardware_threads", int hw) ]
    end
  in
  ( "cache",
    Json.Obj
      [
        ( "fleet",
          Json.Obj
            [
              ("socs", int tam_fleet_count);
              ("cold_ms", Json.Num cold_ms);
              ("warm_ms", Json.Num warm_ms);
              ("warm_over_cold", Json.Num (warm_ms /. cold_ms));
              ("hits", int hits);
              ("misses", int misses);
              ("hit_rate", Json.Num (hit_rate hits misses));
              ("byte_identical", flag identical);
              ("store_bytes", int store_bytes);
            ] );
        ( "serve",
          Json.Obj
            [
              ("cold_jobs_per_s", Json.Num cold_jobs_s);
              ("warm_jobs_per_s", Json.Num warm_jobs_s);
              ("warm_hit_rate", Json.Num serve_hit_rate);
            ] );
        ("domain_scaling", Json.Obj domain_scaling);
      ] )

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  section "Micro-benchmarks (Bechamel; one per reproduced table/figure)";
  let open Bechamel in
  let cpu = Soc.inst soc1 "CPU" in
  let nl = cpu.Soc.ci_netlist in
  let faults = Socet_atpg.Fault.collapse nl in
  let rng = Rng.create 99 in
  let vecs =
    List.init 32 (fun _ -> Rng.bitvec rng (Socet_atpg.Fsim.vector_length nl))
  in
  let fresh_rcg () =
    let r = Rcg.of_core (Cpu.core ()) in
    ignore (Socet_scan.Hscan.insert r);
    r
  in
  let tests =
    [
      Test.make ~name:"fig6+fig8 version ladder"
        (Staged.stage (fun () -> ignore (Version.generate (fresh_rcg ()))));
      Test.make ~name:"fig10+table1 schedule build"
        (Staged.stage (fun () ->
             ignore (Schedule.build soc1 ~choice:(all_v1 soc1) ())));
      Test.make ~name:"table2 hscan insert"
        (Staged.stage (fun () ->
             ignore (Socet_scan.Hscan.insert (Rcg.of_core (Cpu.core ())))));
      Test.make ~name:"table3 fault sim (32 vec)"
        (Staged.stage (fun () ->
             ignore (Socet_atpg.Fsim.run_comb nl ~vectors:vecs ~faults)));
      Test.make ~name:"sec3 access routing"
        (Staged.stage (fun () ->
             let ccg = Ccg.build soc1 ~choice:[ ("PREP", 2) ] in
             let bookings = Access.fresh_bookings () in
             List.iter
               (fun input -> ignore (Access.justify_input ccg bookings ~input))
               (Ccg.core_inputs ccg "DISPLAY")));
    ]
  in
  let rows =
    List.concat_map
      (fun t ->
        let raw =
          Benchmark.all
            (Benchmark.cfg ~quota:(Time.second 0.25) ~kde:None ())
            [ Toolkit.Instance.monotonic_clock ]
            t
        in
        let results =
          Analyze.all
            (Analyze.ols ~bootstrap:0 ~r_square:false
               ~predictors:[| Measure.run |])
            Toolkit.Instance.monotonic_clock raw
        in
        Hashtbl.fold
          (fun name ols acc ->
            let time =
              match Analyze.OLS.estimates ols with
              | Some [ est ] ->
                  if est > 1_000_000.0 then Printf.sprintf "%.2f ms/run" (est /. 1e6)
                  else Printf.sprintf "%.0f ns/run" est
              | _ -> "n/a"
            in
            [ name; time ] :: acc)
          results [])
      tests
  in
  Ascii_table.print ~header:[ "benchmark"; "time" ] (List.sort compare rows)


(* ------------------------------------------------------------------ *)
(* Machine-readable output: BENCH_socet.json                           *)
(* ------------------------------------------------------------------ *)

(* Header, then the sections' entries in run order, then the library
   exporter's metrics snapshot. *)
let write_bench_json file sections =
  let doc =
    Json.Obj
      ((("bench", Json.Str "socet")
       :: ("paper", Json.Str "DAC'98 Ghosh/Dey/Jha")
       :: sections)
      @ obs_snapshot ())
  in
  let oc = open_out file in
  output_string oc (Json.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" file

let () =
  (* A fork+exec'd fleet worker re-enters this binary; route it into the
     serve loop before any benchmarking starts. *)
  Socet_serve.Worker.exec_guard ();
  (* No-op sink: counters and span timers accumulate, but no trace
     events are buffered — keeps the harness overhead negligible. *)
  Obs.configure ();
  Printf.printf "SOCET reproduction bench harness (DAC'98 Ghosh/Dey/Jha)\n";
  Printf.printf "Systems: %s (%d cells), %s (%d cells)\n" soc1.Soc.soc_name
    (Soc.original_area soc1) soc2.Soc.soc_name (Soc.original_area soc2);
  (* First: the fleet forks workers, which OCaml forbids once any other
     section has spawned a pool domain. *)
  let fleet = serve_fleet_section () in
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
  (* Sequential lets: the sections run in this order. *)
  let optimizer = optimizer_section () in
  let parallel = parallel_section () in
  let fsim_kernel = fsim_kernel_section () in
  let serve = serve_section ~fleet in
  let tam = tam_section () in
  let cache = cache_section () in
  bechamel_suite ();
  write_bench_json "BENCH_socet.json"
    [ optimizer; parallel; fsim_kernel; serve; tam; cache ];
  print_newline ()
