open Socet_util

type dictionary = {
  d_faults : Fault.t array;
  d_syndromes : Bitvec.t array; (* bit i set = vector i fails *)
}

let observe nl ~vectors ~fault =
  let syn = Bitvec.create (List.length vectors) in
  List.iteri
    (fun i vec -> if Fsim.detects_comb nl vec fault then Bitvec.set syn i true)
    vectors;
  syn

let build nl ~vectors ~faults =
  (* One fault-simulation pass per vector: the good circuit is evaluated
     once per vector, not once per fault per vector.  Detection is looked
     up by fault, so a fault listed twice gets one syndrome at both
     indices. *)
  let d_faults = Array.of_list faults in
  let nv = List.length vectors in
  let d_syndromes = Array.map (fun _ -> Bitvec.create nv) d_faults in
  List.iteri
    (fun i vec ->
      let hit = Hashtbl.create 64 in
      List.iter
        (fun f -> Hashtbl.replace hit f ())
        (Fsim.run_comb nl ~vectors:[ vec ] ~faults);
      Array.iteri
        (fun j f -> if Hashtbl.mem hit f then Bitvec.set d_syndromes.(j) i true)
        d_faults)
    vectors;
  { d_faults; d_syndromes }

let syndrome_of dict f =
  let rec find i =
    if i >= Array.length dict.d_faults then None
    else if Fault.equal dict.d_faults.(i) f then Some dict.d_syndromes.(i)
    else find (i + 1)
  in
  find 0

let hamming a b = Bitvec.popcount (Bitvec.logxor a b)

let diagnose dict observed =
  let scored =
    Array.to_list
      (Array.mapi
         (fun i f -> (f, hamming dict.d_syndromes.(i) observed))
         dict.d_faults)
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  match List.filter (fun (_, d) -> d = 0) scored with
  | [] -> List.filteri (fun i _ -> i < 10) scored
  | exact -> exact

let distinguishable dict =
  let n = Array.length dict.d_faults in
  if n = 0 then 0.0
  else begin
    let unique = ref 0 in
    Array.iteri
      (fun i s ->
        let clash = ref false in
        Array.iteri
          (fun j s' -> if i <> j && Bitvec.equal s s' then clash := true)
          dict.d_syndromes;
        if not !clash then incr unique
      )
      dict.d_syndromes;
    100.0 *. float_of_int !unique /. float_of_int n
  end
