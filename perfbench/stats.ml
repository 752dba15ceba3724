let sorted xs =
  if xs = [] then invalid_arg "Stats: no samples";
  Array.of_list (List.sort compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    (* statistics.quantiles, method='exclusive': cut point i interpolates
       between data[j-1] and data[j], j = i*(n+1) // 4 clamped to
       1 .. n-1 (extrapolating past the ends for tiny samples). *)
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (i * m / 4) (n - 1)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 2, cut 3)

let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. q2

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  let rank = max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))) in
  (a.(rank - 1), n - rank)

type tail = { t_pct : float; t_value : float; t_beyond : int }

let tail_ladder = [ 99.0; 95.0; 90.0; 75.0 ]

let tail xs =
  if xs = [] then None
  else
    List.find_map
      (fun p ->
        let v, beyond = percentile xs p in
        if beyond >= 10 then Some { t_pct = p; t_value = v; t_beyond = beyond } else None)
      tail_ladder

let failed_frac ~attempted ~failed =
  if attempted < 1 || failed < 0 || failed > attempted then
    invalid_arg
      (Printf.sprintf "Stats.failed_frac: failed=%d attempted=%d" failed attempted);
  float_of_int failed /. float_of_int attempted
