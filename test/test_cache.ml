(* The persistent result cache (lib/cache) and its content addresses:
   structural-hash invariances, the on-disk store's integrity/eviction
   behaviour, and the end-to-end contract — cached results byte-identical
   to cold computes, incremental invalidation bounded to the edit. *)

open Socet_util
open Socet_netlist
module Cache = Socet_cache.Cache
module Store = Socet_cache.Store
module Soc = Socet_core.Soc
module Obs = Socet_obs.Obs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* A fresh store in its own temp directory, removed with everything in
   it however the test body exits. *)
let dir_counter = ref 0

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error _ -> ()

let with_fresh_store ?limit_bytes f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "socet-cache-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  match Store.open_store ?limit_bytes dir with
  | Error e -> Alcotest.failf "open_store: %s" (Error.to_string e)
  | Ok s -> f dir s

(* ------------------------------------------------------------------ *)
(* Structural hash: unit cases                                         *)
(* ------------------------------------------------------------------ *)

(* Two AND/OR netlists that differ only in gate names and in the
   declaration order of the two independent internal gates. *)
let build_pair ~swap ~names nl =
  let a = Netlist.add_pi nl "a" in
  let b = Netlist.add_pi nl "b" in
  let mk i kind =
    Netlist.add_gate nl ?name:(if names then Some (Printf.sprintf "g%d" i) else None)
      kind [| a; b |]
  in
  let x, y =
    if swap then
      let y = mk 0 Cell.Or2 in
      let x = mk 1 Cell.And2 in
      (x, y)
    else
      let x = mk 2 Cell.And2 in
      let y = mk 3 Cell.Or2 in
      (x, y)
  in
  Netlist.add_po nl "o1" x;
  Netlist.add_po nl "o2" y

let test_hash_rename_and_reorder_neutral () =
  let nl1 = Netlist.create "n1" in
  build_pair ~swap:false ~names:true nl1;
  let nl2 = Netlist.create "completely-different-name" in
  build_pair ~swap:true ~names:false nl2;
  check_str "names and internal declaration order are hash-neutral"
    (Structhash.netlist nl1) (Structhash.netlist nl2)

let test_hash_functional_edit_sensitive () =
  let nl1 = Netlist.create "n" in
  build_pair ~swap:false ~names:false nl1;
  let h = Structhash.netlist nl1 in
  (* Kind change. *)
  let nl2 = Netlist.create "n" in
  let a = Netlist.add_pi nl2 "a" in
  let b = Netlist.add_pi nl2 "b" in
  let x = Netlist.add_gate nl2 Cell.Nand2 [| a; b |] in
  let y = Netlist.add_gate nl2 Cell.Or2 [| a; b |] in
  Netlist.add_po nl2 "o1" x;
  Netlist.add_po nl2 "o2" y;
  check "kind change changes the hash" true (h <> Structhash.netlist nl2);
  (* PO swap: positional interface identity. *)
  let nl3 = Netlist.create "n" in
  let a = Netlist.add_pi nl3 "a" in
  let b = Netlist.add_pi nl3 "b" in
  let x = Netlist.add_gate nl3 Cell.And2 [| a; b |] in
  let y = Netlist.add_gate nl3 Cell.Or2 [| a; b |] in
  Netlist.add_po nl3 "o1" y;
  Netlist.add_po nl3 "o2" x;
  check "swapping PO drivers changes the hash" true (h <> Structhash.netlist nl3)

let test_hash_asymmetric_pins () =
  (* Mux2(sel, a, b) vs Mux2(sel, b, a): same multiset of fanins, pins
     swapped — the pin order must be part of each gate's label. *)
  let build flip =
    let nl = Netlist.create "m" in
    let s = Netlist.add_pi nl "s" in
    let a = Netlist.add_pi nl "a" in
    let b = Netlist.add_pi nl "b" in
    let m =
      Netlist.add_gate nl Cell.Mux2 (if flip then [| s; b; a |] else [| s; a; b |])
    in
    Netlist.add_po nl "y" m;
    Structhash.netlist nl
  in
  check "swapped mux data pins change the hash" true (build false <> build true)

(* ------------------------------------------------------------------ *)
(* Structural hash: qcheck properties over the random-core generator   *)
(* ------------------------------------------------------------------ *)

let elaborated seed =
  let rng = Rng.create seed in
  Socet_synth.Elaborate.core_to_netlist (Gen.random_core rng)

let prop_hash_deterministic =
  QCheck.Test.make ~name:"cache: structural hash deterministic across builds"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      Structhash.netlist (elaborated seed) = Structhash.netlist (elaborated seed))

let prop_hash_edit_sensitive =
  QCheck.Test.make
    ~name:"cache: inverter-pair splice (functional edit) changes the hash"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let nl = elaborated seed in
      let h = Structhash.netlist nl in
      match Netlist.pos nl with
      | [] -> QCheck.assume_fail ()
      | (po, net) :: _ ->
          let a = Netlist.add_gate nl Cell.Inv [| net |] in
          let b = Netlist.add_gate nl Cell.Inv [| a |] in
          Netlist.replace_po nl po b;
          h <> Structhash.netlist nl)

(* ------------------------------------------------------------------ *)
(* Store: roundtrip, integrity, eviction                               *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  with_fresh_store @@ fun dir s ->
  check "fresh store misses" true (Store.find s ~ns:"t1" ~key:"k" = None);
  Store.store s ~ns:"t1" ~key:"k" "payload-bytes";
  check "hit after store" true (Store.find s ~ns:"t1" ~key:"k" = Some "payload-bytes");
  check "other namespace misses" true (Store.find s ~ns:"t2" ~key:"k" = None);
  check "other key misses" true (Store.find s ~ns:"t1" ~key:"k2" = None);
  (* A second handle on the same directory sees the entry (the on-disk
     format, not the in-process index, is the source of truth). *)
  match Store.open_store dir with
  | Error e -> Alcotest.failf "reopen: %s" (Error.to_string e)
  | Ok s2 ->
      check "persists across reopen" true
        (Store.find s2 ~ns:"t1" ~key:"k" = Some "payload-bytes")

let test_store_rejects_bad_dir () =
  let file = Filename.temp_file "socet-cache-test" ".notadir" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  match Store.open_store file with
  | Ok _ -> Alcotest.fail "opened a store rooted at a regular file"
  | Error e ->
      check "validation error" true (e.Error.err_kind = Error.Validation);
      check_int "maps to exit code 3" 3 (Error.exit_code e)

let entry_file dir ~ns =
  let d = Filename.concat dir ns in
  match Array.to_list (Sys.readdir d) with
  | [ f ] -> Filename.concat d f
  | l -> Alcotest.failf "expected one entry file in %s, found %d" d (List.length l)

let test_store_corruption_is_a_miss () =
  with_fresh_store @@ fun dir s ->
  Store.store s ~ns:"c1" ~key:"k" "precious";
  let path = entry_file dir ~ns:"c1" in
  (* Truncate mid-entry: checksum cannot match. *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full / 2)));
  check "truncated entry reads as a miss" true (Store.find s ~ns:"c1" ~key:"k" = None);
  check "corrupt file removed" false (Sys.file_exists path);
  (* The slot is usable again. *)
  Store.store s ~ns:"c1" ~key:"k" "precious";
  check "hit after rewrite" true (Store.find s ~ns:"c1" ~key:"k" = Some "precious")

let test_store_flipped_byte_is_a_miss () =
  with_fresh_store @@ fun dir s ->
  Store.store s ~ns:"c2" ~key:"k" "precious";
  let path = entry_file dir ~ns:"c2" in
  let full = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let i = Bytes.length full - 20 in
  Bytes.set full i (Char.chr (Char.code (Bytes.get full i) lxor 0x41));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc full);
  check "bit rot reads as a miss" true (Store.find s ~ns:"c2" ~key:"k" = None)

let test_store_eviction_bounded () =
  (* ~100-byte payloads against a 1 KiB limit: storing 30 entries must
     evict, and the tracked size must respect the bound throughout. *)
  with_fresh_store ~limit_bytes:1024 @@ fun _dir s ->
  for i = 1 to 30 do
    Store.store s ~ns:"ev" ~key:(string_of_int i) (String.make 100 'x');
    check "bytes within limit after every store" true (Store.bytes_used s <= 1024)
  done;
  check "old entries evicted" true (Store.find s ~ns:"ev" ~key:"1" = None);
  check "newest entry survives" true (Store.find s ~ns:"ev" ~key:"30" <> None)

(* ------------------------------------------------------------------ *)
(* Facade: scoping, typed memo                                         *)
(* ------------------------------------------------------------------ *)

let test_cache_facade_scoping () =
  check "disabled by default" false (Cache.enabled ());
  check "find is a no-op when disabled" true
    (Cache.find ~ns:"f" ~key:"k" = (None : int option));
  with_fresh_store @@ fun _dir s ->
  Cache.with_store (Some s) (fun () ->
      check "enabled inside with_store" true (Cache.enabled ());
      let computes = ref 0 in
      let v =
        Cache.memo ~ns:"f1" ~key:"k" (fun () ->
            incr computes;
            [ (1, "one"); (2, "two") ])
      in
      check "memo computes once" true (v = [ (1, "one"); (2, "two") ] && !computes = 1);
      let v2 = Cache.memo ~ns:"f1" ~key:"k" (fun () -> incr computes; []) in
      check "memo serves the stored value" true
        (v2 = [ (1, "one"); (2, "two") ] && !computes = 1));
  check "restored after with_store" false (Cache.enabled ())

let test_cache_memo_unmarshalable () =
  (* Marshal rejects a closure with [Invalid_argument]: memo must hand
     the value back and store nothing rather than crash the run. *)
  with_fresh_store @@ fun _dir s ->
  Cache.with_store (Some s) @@ fun () ->
  let incr_by = 1 in
  let f = Cache.memo ~ns:"fn" ~key:"k" (fun () -> fun x -> x + incr_by) in
  check_int "the closure is returned" 2 (f 1);
  check "the closure is not stored" true (Store.find s ~ns:"fn" ~key:"k" = None);
  check_int "nothing is written" 0 (Store.bytes_used s)

let test_cache_scoreboard () =
  with_fresh_store @@ fun _dir s ->
  Cache.with_store (Some s) (fun () ->
      Cache.reset_scoreboard ();
      ignore (Cache.memo ~ns:"sb" ~key:"k" (fun () -> 42));
      ignore (Cache.memo ~ns:"sb" ~key:"k" (fun () -> 43));
      match List.assoc_opt "sb" (List.map (fun (ns, h, m) -> (ns, (h, m))) (Cache.scoreboard ())) with
      | Some (hits, misses) ->
          check_int "one miss" 1 misses;
          check_int "one hit" 1 hits
      | None -> Alcotest.fail "namespace missing from scoreboard")

(* ------------------------------------------------------------------ *)
(* End to end: warm runs byte-identical, invalidation bounded          *)
(* ------------------------------------------------------------------ *)

let fleet_render () =
  Socet_tam.Fleet.render (Socet_tam.Fleet.run ~seed:7 ~cores:2 ~count:3 ())

let test_warm_fleet_byte_identical () =
  let cold_nocache = fleet_render () in
  with_fresh_store @@ fun _dir s ->
  let cold = Cache.with_store (Some s) fleet_render in
  let warm =
    Cache.with_store (Some s) (fun () ->
        Cache.reset_scoreboard ();
        fleet_render ())
  in
  check_str "cold cached run matches uncached" cold_nocache cold;
  check_str "warm run byte-identical" cold warm;
  let hits = List.fold_left (fun acc (_, h, _) -> acc + h) 0 (Cache.scoreboard ()) in
  check "warm run actually hit the cache" true (hits > 0)

(* What a plan yields, as plain data: the default-choice schedule's
   per-core figures, the minimize_time trajectory's points and the
   rendered TAM schedule. *)
let plan_sig soc =
  let module Schedule = Socet_core.Schedule in
  let module Select = Socet_core.Select in
  let choice = List.map (fun ci -> (ci.Soc.ci_name, 1)) soc.Soc.insts in
  let s = Schedule.build soc ~choice () in
  let tam = Socet_tam.Schedule.render (Socet_tam.Schedule.build soc) in
  let tests =
    List.map
      (fun t ->
        Schedule.(t.ct_inst, t.ct_vectors, t.ct_period, t.ct_tail, t.ct_time))
      s.Schedule.s_tests
  in
  let points =
    List.map
      (fun p ->
        ( p.Select.pt_choice,
          List.map
            (fun m -> Schedule.(m.sm_inst, m.sm_port, m.sm_dir))
            p.Select.pt_smuxes,
          p.Select.pt_area,
          p.Select.pt_time ))
      (Select.minimize_time soc ~max_area:10_000)
  in
  (s.Schedule.s_area_overhead, tests, points, tam)

let test_incremental_blast_radius () =
  (* Edit one core of a two-core SOC: its ATPG recomputes, the other
     core's ATPG is reused.  Per-core ATPG is all the store holds (routes
     are reused only by Select's in-memory memo, TAM schedules are
     repacked), so a store changes no planned point. *)
  let gen () = Socet_cores.Gen.random_soc ~cores:2 ~hetero:true (Rng.create 11) in
  let bare = Cache.with_store None (fun () -> plan_sig (gen ())) in
  with_fresh_store @@ fun _dir s ->
  Cache.with_store (Some s) @@ fun () ->
  let namespaces = ref [] in
  (* The SOC is generated after the reset, so lookups made while
     instantiating its cores are tallied with the pass. *)
  let pass make_soc =
    Cache.reset_scoreboard ();
    let sg = plan_sig (make_soc ()) in
    let board = Cache.scoreboard () in
    namespaces := List.map (fun (ns, _, _) -> ns) board @ !namespaces;
    (sg, board)
  in
  let cold, _ = pass gen in
  check "cold store run plans the same points as no store" true (cold = bare);
  (* Warm replay: no recomputation at all. *)
  let warm, board = pass gen in
  check "warm store run plans the same points as no store" true (warm = bare);
  List.iter
    (fun (ns, _, misses) -> check_int ("warm misses in " ^ ns) 0 misses)
    board;
  (* Edited replay. *)
  let edited () =
    let soc = gen () in
    (match soc.Soc.insts with
    | ci :: _ -> (
        let nl = ci.Soc.ci_netlist in
        match Netlist.pos nl with
        | (po, net) :: _ ->
            let a = Netlist.add_gate nl Cell.Inv [| net |] in
            let b = Netlist.add_gate nl Cell.Inv [| a |] in
            Netlist.replace_po nl po b
        | [] -> Alcotest.fail "core has no PO")
    | [] -> Alcotest.fail "SOC has no cores");
    soc
  in
  let _, board = pass edited in
  let tally ns =
    match List.find_opt (fun (n, _, _) -> n = ns) board with
    | Some (_, h, m) -> (h, m)
    | None -> (0, 0)
  in
  let ph, pm = tally "podem2" in
  check_int "only the edited core's ATPG recomputes" 1 pm;
  check_int "the other core's ATPG is reused" 1 ph;
  Alcotest.(check (list string))
    "engines use exactly the podem2 namespace" [ "podem2" ]
    (List.sort_uniq compare !namespaces)

(* ------------------------------------------------------------------ *)
(* The per-core ATPG stage (Soc.core_atpg)                             *)
(* ------------------------------------------------------------------ *)

(* The process table is shared by every test in this binary, so each
   case below uses a random-SOC seed no other test uses: its netlists
   start cold. *)

let podem_runs () =
  Option.value ~default:0
    (Option.map fst (List.assoc_opt "atpg.podem.run" (Obs.snapshot_timers ())))

let cache_stores () =
  Option.value ~default:0 (List.assoc_opt "cache.stores" (Obs.snapshot_counters ()))

(* Run [f] with metrics on; its result and how far [read] moved. *)
let counting read f =
  let was_on = Obs.enabled () in
  Obs.configure ();
  let before = read () in
  let r = Fun.protect ~finally:(fun () -> if not was_on then Obs.disable ()) f in
  (r, read () - before)

(* The key older builds wrote; a store filled by one must keep hitting. *)
let pinned_key nl = Structhash.netlist nl ^ "|bt=1000|rp=64|seed=42|scoap=true"

let first_netlist seed =
  let soc = Socet_cores.Gen.random_soc ~cores:1 ~hetero:true (Rng.create seed) in
  (List.hd soc.Soc.insts).Soc.ci_netlist

let force_atpg soc = List.map (fun ci -> Lazy.force ci.Soc.ci_atpg) soc.Soc.insts

let test_stage_reuses_without_store () =
  let gen () = Socet_cores.Gen.random_soc ~cores:2 ~hetero:true (Rng.create 2201) in
  Cache.with_store None @@ fun () ->
  let first, cold_runs = counting podem_runs (fun () -> force_atpg (gen ())) in
  check "the first build runs PODEM" true (cold_runs > 0);
  let again, warm_runs = counting podem_runs (fun () -> force_atpg (gen ())) in
  check_int "the second build runs no PODEM" 0 warm_runs;
  check "the second build gets equal test sets" true (again = first)

let test_stage_does_not_bypass_store () =
  let gen () = Socet_cores.Gen.random_soc ~cores:2 ~hetero:true (Rng.create 2202) in
  let bare = Cache.with_store None (fun () -> force_atpg (gen ())) in
  with_fresh_store @@ fun _dir s ->
  Cache.with_store (Some s) @@ fun () ->
  let pass () =
    Cache.reset_scoreboard ();
    let soc = gen () in
    let stats = force_atpg soc in
    let distinct =
      List.length
        (List.sort_uniq compare
           (List.map (fun ci -> Structhash.netlist ci.Soc.ci_netlist) soc.Soc.insts))
    in
    let hits, misses =
      match List.find_opt (fun (ns, _, _) -> ns = "podem2") (Cache.scoreboard ()) with
      | Some (_, h, m) -> (h, m)
      | None -> (0, 0)
    in
    (stats, List.length soc.Soc.insts, distinct, hits, misses)
  in
  let cold, n, distinct, hits, misses = pass () in
  check_int "a cold store misses each distinct netlist" distinct misses;
  check_int "a cold store hits only repeats" (n - distinct) hits;
  check "the store run equals the table run" true (cold = bare);
  let warm, n, _, hits, misses = pass () in
  check_int "a warm store hits every core" n hits;
  check_int "a warm store misses nothing" 0 misses;
  check "the warm run equals the table run" true (warm = bare)

let test_stage_keys_edited_netlist () =
  let gen () = Socet_cores.Gen.random_soc ~cores:2 ~hetero:true (Rng.create 2203) in
  Cache.with_store None @@ fun () ->
  (* Fill the table with the unedited netlists first. *)
  ignore (force_atpg (gen ()));
  let soc = gen () in
  let ci = List.hd soc.Soc.insts in
  let nl = ci.Soc.ci_netlist in
  let before = Structhash.netlist nl in
  (match Netlist.pos nl with
  | (po, net) :: _ ->
      let a = Netlist.add_gate nl Cell.Inv [| net |] in
      let b = Netlist.add_gate nl Cell.Inv [| a |] in
      Netlist.replace_po nl po b
  | [] -> Alcotest.fail "core has no PO");
  check "the edit changes the netlist hash" true (Structhash.netlist nl <> before);
  let got = Lazy.force ci.Soc.ci_atpg in
  check "the edited core gets PODEM on the edited netlist" true
    (got = Socet_atpg.Podem.run nl)

let test_engine_leaves_store_to_stage () =
  let nl = first_netlist 2301 in
  with_fresh_store @@ fun _dir s ->
  Cache.with_store (Some s) @@ fun () ->
  Cache.reset_scoreboard ();
  let plain = Socet_atpg.Podem.run nl in
  check "Podem.run looks nothing up" true (Cache.scoreboard () = []);
  check "Podem.run writes no podem2 entry" true
    (Store.find s ~ns:"podem2" ~key:(pinned_key nl) = None);
  let staged, stores = counting cache_stores (fun () -> Soc.core_atpg nl) in
  check "the stage misses once" true (Cache.scoreboard () = [ ("podem2", 0, 1) ]);
  check_int "the stage stores once" 1 stores;
  check "the stage returns the engine's record" true (staged = plain)

let test_stage_key_pinned () =
  let nl = first_netlist 2302 in
  with_fresh_store @@ fun _dir s ->
  Cache.with_store (Some s) @@ fun () ->
  let stats = Soc.core_atpg nl in
  check "the record sits under the pinned podem2 key" true
    (Cache.find ~ns:"podem2" ~key:(pinned_key nl) = Some stats)

let () =
  Alcotest.run "cache"
    [
      ( "structhash",
        [
          Alcotest.test_case "rename/reorder neutral" `Quick
            test_hash_rename_and_reorder_neutral;
          Alcotest.test_case "functional edits sensitive" `Quick
            test_hash_functional_edit_sensitive;
          Alcotest.test_case "asymmetric pin order" `Quick test_hash_asymmetric_pins;
          QCheck_alcotest.to_alcotest prop_hash_deterministic;
          QCheck_alcotest.to_alcotest prop_hash_edit_sensitive;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip and reopen" `Quick test_store_roundtrip;
          Alcotest.test_case "bad directory rejected" `Quick test_store_rejects_bad_dir;
          Alcotest.test_case "truncation is a clean miss" `Quick
            test_store_corruption_is_a_miss;
          Alcotest.test_case "bit rot is a clean miss" `Quick
            test_store_flipped_byte_is_a_miss;
          Alcotest.test_case "eviction respects the bound" `Quick
            test_store_eviction_bounded;
        ] );
      ( "facade",
        [
          Alcotest.test_case "activation scoping + typed memo" `Quick
            test_cache_facade_scoping;
          Alcotest.test_case "per-namespace scoreboard" `Quick test_cache_scoreboard;
          Alcotest.test_case "an unmarshalable value is not stored" `Quick
            test_cache_memo_unmarshalable;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "warm fleet byte-identical" `Quick
            test_warm_fleet_byte_identical;
          Alcotest.test_case "incremental blast radius" `Quick
            test_incremental_blast_radius;
        ] );
      ( "core-atpg",
        [
          Alcotest.test_case "no store: a rebuild runs no PODEM" `Quick
            test_stage_reuses_without_store;
          Alcotest.test_case "an active store is not bypassed" `Quick
            test_stage_does_not_bypass_store;
          Alcotest.test_case "a netlist edited after instantiate" `Quick
            test_stage_keys_edited_netlist;
          Alcotest.test_case "the engine leaves the store to the stage" `Quick
            test_engine_leaves_store_to_stage;
          Alcotest.test_case "the stage's store key is pinned" `Quick
            test_stage_key_pinned;
        ] );
    ]
