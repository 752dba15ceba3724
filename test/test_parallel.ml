(* The domain pool's deterministic-reduction contract, end to end: the
   pool primitives themselves, then the two parallel engines (fault
   simulation, design-space search) checked bit-identical across domain
   counts — and, for the design space, against the unmemoized
   per-choice evaluator. *)

open Socet_util
open Socet_core
open Socet_cores
module Fsim = Socet_atpg.Fsim
module Fault = Socet_atpg.Fault
module Podem = Socet_atpg.Podem
module Obs = Socet_obs.Obs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool primitives                                                     *)
(* ------------------------------------------------------------------ *)

let with_domains n f =
  Pool.set_size n;
  Fun.protect ~finally:(fun () -> Pool.set_size 1) f

let test_map_order () =
  with_domains 4 @@ fun () ->
  List.iter
    (fun n ->
      let input = Array.init n (fun i -> i) in
      let out = Pool.parallel_map ~chunk:3 (fun i -> (i * 7) mod 13) input in
      check_int (Printf.sprintf "map n=%d" n) n (Array.length out);
      Array.iteri
        (fun i v -> check_int (Printf.sprintf "slot %d" i) ((i * 7) mod 13) v)
        out)
    [ 0; 1; 2; 7; 64; 65; 1000 ]

let test_map_list () =
  with_domains 2 @@ fun () ->
  let xs = List.init 101 (fun i -> i) in
  check "list order" true
    (Pool.parallel_map_list ~chunk:5 (fun i -> i + 1) xs
    = List.map (fun i -> i + 1) xs)

let test_reduce_order () =
  with_domains 4 @@ fun () ->
  (* String concatenation is not commutative: any out-of-order merge
     would scramble the result. *)
  let input = Array.init 200 string_of_int in
  let got =
    Pool.parallel_reduce ~chunk:7
      ~map:(fun s -> s ^ ",")
      ~merge:(fun acc s -> acc ^ s)
      ~init:"" input
  in
  let want = Array.fold_left (fun acc s -> acc ^ s ^ ",") "" input in
  check "reduce submission order" true (got = want)

let test_exception_propagates () =
  with_domains 4 @@ fun () ->
  let raised =
    try
      ignore
        (Pool.parallel_map ~chunk:2
           (fun i -> if i = 37 then failwith "boom" else i)
           (Array.init 100 (fun i -> i)));
      false
    with Failure m -> m = "boom"
  in
  check "exception surfaced" true raised;
  (* The pool survives a failed job. *)
  let out = Pool.parallel_map (fun i -> i * 2) (Array.init 50 (fun i -> i)) in
  check "pool reusable after failure" true (out = Array.init 50 (fun i -> i * 2))

let test_chunk_heuristic () =
  with_domains 4 @@ fun () ->
  (* No cost hint: pure load-balance split, ~4 chunks per domain. *)
  check_int "balance split" (1000 / (4 * Pool.size ())) (Pool.chunk_size 1000);
  check_int "floor of one" 1 (Pool.chunk_size 2);
  (* An explicit chunk always wins over the heuristic. *)
  check_int "explicit chunk wins" 7 (Pool.chunk_size ~chunk:7 1000);
  (* A cost hint coarsens tiny work items toward the ~2048-unit grain ... *)
  check "cheap items coarsen" true
    (Pool.chunk_size ~cost:10.0 1000 >= 2048 / 10);
  (* ... and leaves expensive items on the balance split. *)
  check_int "expensive items balance" (1000 / (4 * Pool.size ()))
    (Pool.chunk_size ~cost:4096.0 1000)

let test_iter_ranges_covers () =
  with_domains 4 @@ fun () ->
  List.iter
    (fun n ->
      let seen = Array.make (max n 1) 0 in
      Pool.parallel_iter_ranges ~chunk:3 n (fun lo hi ->
          for i = lo to hi - 1 do
            seen.(i) <- seen.(i) + 1
          done);
      check "each index exactly once" true (Array.for_all (( = ) 1) seen || n = 0))
    [ 0; 1; 2; 3; 64; 1000 ]

let test_nested_no_deadlock () =
  with_domains 4 @@ fun () ->
  let out =
    Pool.parallel_map ~chunk:1
      (fun i ->
        Array.fold_left ( + ) 0
          (Pool.parallel_map (fun j -> i + j) (Array.init 20 (fun j -> j))))
      (Array.init 16 (fun i -> i))
  in
  Array.iteri
    (fun i v -> check_int (Printf.sprintf "nested %d" i) ((20 * i) + 190) v)
    out

(* ------------------------------------------------------------------ *)
(* Fault simulation: identical detections at any domain count          *)
(* ------------------------------------------------------------------ *)

let fsim_signature nl ~vectors ~faults =
  List.map
    (fun (f : Fault.t) -> (f.Fault.f_net, f.Fault.f_stuck))
    (Fsim.run_comb nl ~vectors ~faults)

let prop_fsim_domain_invariant =
  QCheck.Test.make ~name:"parallel: run_comb identical at 1/2/4 domains"
    ~count:10
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let core = Gen.random_core rng in
      let nl = Socet_synth.Elaborate.core_to_netlist core in
      let stats = Podem.run ~random_patterns:32 nl in
      let vectors = stats.Podem.vectors in
      let faults = Fault.collapse nl in
      let at n = with_domains n (fun () -> fsim_signature nl ~vectors ~faults) in
      let base = at 1 in
      at 2 = base && at 4 = base)

let test_cone_cache_counts () =
  Obs.configure ();
  Obs.reset ();
  let rng = Rng.create 7 in
  let core = Gen.random_core rng in
  let nl = Socet_synth.Elaborate.core_to_netlist core in
  let stats = Podem.run ~random_patterns:32 nl in
  let faults = Fault.collapse nl in
  let sites =
    List.sort_uniq compare (List.map (fun (f : Fault.t) -> f.Fault.f_net) faults)
  in
  Obs.reset ();
  ignore (Fsim.run_comb nl ~vectors:stats.Podem.vectors ~faults);
  ignore (Fsim.run_comb nl ~vectors:stats.Podem.vectors ~faults);
  let counter name =
    Option.value ~default:0 (List.assoc_opt name (Obs.snapshot_counters ()))
  in
  let hits = counter "atpg.fsim.cone_cache_hits" in
  let misses = counter "atpg.fsim.cone_cache_misses" in
  Obs.disable ();
  (* Podem.run above already built every site's cone on this netlist, so
     both run_comb calls resolve purely from the cache; misses only count
     real constructions (one per distinct site, all during Podem.run). *)
  check "misses bounded by distinct sites" true
    (misses >= 0 && misses <= List.length sites);
  check_int "both calls resolve from cache" (2 * List.length faults) hits

(* ------------------------------------------------------------------ *)
(* Design space: identical at any domain count, and memo-exact         *)
(* ------------------------------------------------------------------ *)

let route_sig (r : Access.route) =
  (r.Access.r_target, r.Access.r_arrival, r.Access.r_departures,
   r.Access.r_added_smux)

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

let test_design_space_domain_invariant () =
  List.iter
    (fun soc ->
      let at n = with_domains n (fun () -> List.map point_sig (Select.design_space soc)) in
      let base = at 1 in
      check "2 domains = sequential" true (at 2 = base);
      check "4 domains = sequential" true (at 4 = base))
    [ Systems.system1 (); Systems.system2 () ]

let test_design_space_matches_evaluate () =
  (* The memoized fan-out must agree, point by point, with the plain
     one-full-build-per-choice evaluator. *)
  let soc = Systems.system1 () in
  let space = with_domains 4 (fun () -> Select.design_space soc) in
  check "non-empty space" true (space <> []);
  List.iter
    (fun (p : Select.point) ->
      let plain = Select.evaluate soc ~choice:p.Select.pt_choice () in
      check "memoized = unmemoized" true (point_sig p = point_sig plain))
    space

let test_memo_hits_counted () =
  Obs.configure ();
  Obs.reset ();
  let soc = Systems.system1 () in
  let n_points =
    with_domains 2 (fun () -> List.length (Select.design_space soc))
  in
  let hits =
    Option.value ~default:0
      (List.assoc_opt "core.select.memo_hits" (Obs.snapshot_counters ()))
  in
  Obs.disable ();
  check "space explored" true (n_points > 1);
  check "memo reused across points" true (hits > 0)

(* ------------------------------------------------------------------ *)
(* The per-core ATPG stage under concurrent misses                     *)
(* ------------------------------------------------------------------ *)

let test_core_atpg_concurrent () =
  (* A netlist no other test builds, so all four tasks can miss the
     process table at once, race to insert and must agree. *)
  let fresh () =
    Socet_synth.Elaborate.core_to_netlist (Gen.random_core (Rng.create 2204))
  in
  let nl = fresh () in
  let got =
    with_domains 4 @@ fun () ->
    Pool.parallel_map ~chunk:1 (fun _ -> Soc.core_atpg nl) (Array.make 4 ())
  in
  let want = Podem.run (fresh ()) in
  Array.iter (fun s -> check "each task equals a plain Podem.run" true (s = want)) got

let () =
  Alcotest.run "socet_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_order;
          Alcotest.test_case "map over lists" `Quick test_map_list;
          Alcotest.test_case "reduce merges in submission order" `Quick
            test_reduce_order;
          Alcotest.test_case "exceptions propagate, pool survives" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested calls degrade, no deadlock" `Quick
            test_nested_no_deadlock;
          Alcotest.test_case "chunk-size heuristic" `Quick test_chunk_heuristic;
          Alcotest.test_case "iter_ranges covers exactly" `Quick
            test_iter_ranges_covers;
        ] );
      ( "fsim",
        [
          QCheck_alcotest.to_alcotest prop_fsim_domain_invariant;
          Alcotest.test_case "cone cache: misses build, hits reuse" `Quick
            test_cone_cache_counts;
        ] );
      ( "design-space",
        [
          Alcotest.test_case "identical across domain counts" `Slow
            test_design_space_domain_invariant;
          Alcotest.test_case "memoized equals unmemoized" `Slow
            test_design_space_matches_evaluate;
          Alcotest.test_case "memo hits counted" `Quick test_memo_hits_counted;
        ] );
      ( "core-atpg",
        [
          Alcotest.test_case "4 concurrent misses agree" `Quick
            test_core_atpg_concurrent;
        ] );
    ]
