(* The benchmark's statistics helpers.  Quartile expectations are what
   Python's statistics.quantiles(xs, n=4) returns for the same data. *)

module S = Perfbench_stats.Stats

let feq = Alcotest.float 1e-9
let range n = List.init n (fun i -> float_of_int (i + 1))

let test_median () =
  Alcotest.check feq "odd" 3.0 (S.median [ 5.; 1.; 3.; 4.; 2. ]);
  Alcotest.check feq "even" 2.5 (S.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check feq "single" 7.0 (S.median [ 7. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats: no samples") (fun () ->
      ignore (S.median []))

let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = S.quartiles xs in
    Alcotest.check feq (name ^ " q1") a q1;
    Alcotest.check feq (name ^ " q2") b q2;
    Alcotest.check feq (name ^ " q3") c q3
  in
  check "two" [ 1.; 2. ] (0.75, 1.5, 2.25);
  check "three" [ 1.; 2.; 3. ] (1.0, 2.0, 3.0);
  check "four" [ 1.; 2.; 3.; 4. ] (1.25, 2.5, 3.75);
  check "five unsorted" [ 5.; 1.; 4.; 2.; 3. ] (1.5, 3.0, 4.5);
  check "ten" (range 10) (2.75, 5.5, 8.25);
  check "ties" [ 3.5; 1.25; 9.; 2.; 7.; 7.; 8. ] (2.0, 7.0, 8.0);
  Alcotest.check feq "spread" (5.5 /. 5.5) (S.spread (range 10))

let tail_is name xs expect =
  match (S.tail xs, expect) with
  | None, None -> ()
  | Some t, Some (pct, value, beyond) ->
      Alcotest.check feq (name ^ " pct") pct t.S.t_pct;
      Alcotest.check feq (name ^ " value") value t.S.t_value;
      Alcotest.check Alcotest.int (name ^ " beyond") beyond t.S.t_beyond
  | Some t, None -> Alcotest.failf "%s: expected no tail, got p%g" name t.S.t_pct
  | None, Some _ -> Alcotest.failf "%s: expected a tail, got none" name

let test_tail () =
  tail_is "39 samples: too few" (range 39) None;
  tail_is "40 samples: p75" (range 40) (Some (75., 30., 10));
  tail_is "99 samples: still p75" (range 99) (Some (75., 75., 24));
  tail_is "100 samples: p90" (range 100) (Some (90., 90., 10));
  tail_is "200 samples: p95" (range 200) (Some (95., 190., 10));
  tail_is "1000 samples: p99" (range 1000) (Some (99., 990., 10));
  tail_is "empty" [] None;
  (* The tail is never the median, however the ladder lands. *)
  List.iter
    (fun n ->
      match S.tail (range n) with
      | Some t -> Alcotest.(check bool) "above p50" true (t.S.t_pct > 50.)
      | None -> ())
    [ 40; 41; 80; 150; 500 ]

let test_failed_frac () =
  Alcotest.check feq "none" 0.0 (S.failed_frac ~attempted:9 ~failed:0);
  Alcotest.check feq "some" 0.25 (S.failed_frac ~attempted:8 ~failed:2);
  Alcotest.check feq "all" 1.0 (S.failed_frac ~attempted:3 ~failed:3);
  List.iter
    (fun (attempted, failed) ->
      match S.failed_frac ~attempted ~failed with
      | _ -> Alcotest.failf "accepted failed=%d attempted=%d" failed attempted
      | exception Invalid_argument _ -> ())
    [ (0, 0); (3, 4); (3, -1) ]

let () =
  Alcotest.run "perfbench_stats"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "tail rule" `Quick test_tail;
          Alcotest.test_case "failed_frac" `Quick test_failed_frac;
        ] );
    ]
