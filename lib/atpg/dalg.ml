open Socet_util
open Socet_netlist
open Dcalc
module Obs = Socet_obs.Obs

let c_faults = Obs.counter ~scope:"atpg" "dalg.faults_targeted"
let c_decisions = Obs.counter ~scope:"atpg" "dalg.decisions"
let g_frontier_peak = Obs.gauge ~scope:"atpg" "dalg.d_frontier_peak"
let h_frontier = Obs.histogram ~scope:"atpg" "dalg.d_frontier_size"

type outcome = Test of Bitvec.t | Untestable | Aborted

(* Composite five-valued logic: value in the good machine / faulty
   machine.  Cubes and assignments speak it; the search state is the two
   planes of a {!Dcalc.machine}, kept normalized — a pair with an X on
   either side is stored as (X, X) — so every stored pair is one of these
   five values. *)
type v5 = Zero | One | D | Db | X

let good = function Zero | Db -> T0 | One | D -> T1 | X -> TX
let faulty = function Zero | D -> T0 | One | Db -> T1 | X -> TX

let compose g f =
  match (g, f) with
  | T0, T0 -> Zero
  | T1, T1 -> One
  | T1, T0 -> D
  | T0, T1 -> Db
  | TX, _ | _, TX -> X

let neg = function Zero -> One | One -> Zero | D -> Db | Db -> D | X -> X

exception Conflict
exception Give_up

let generate ?(decision_limit = 20_000) ?budget nl (fault : Fault.t) =
  Obs.incr c_faults;
  let flat = Flat.of_netlist nl in
  let kinds = flat.Flat.kinds and order = flat.Flat.order in
  let m = Dcalc.create flat.Flat.n in
  let site = fault.f_net in
  let stuck = tv_of_bool fault.f_stuck in
  (* Only the site's combinational fanout can carry a D (cubes assign
     plain values), so the frontier and observation checks scan the fault
     cone alone. *)
  let cone, _ = Flat.cone flat site in
  let xp = Dcalc.xpath_scratch flat in
  let value g = compose m.g.(g) m.f.(g) in
  (* Forward evaluation of net [g] from current values, with the fault
     site's faulty plane pinned to the stuck value.  A source (PI,
     flip-flop, constant) evaluates to the value it holds. *)
  let eval g =
    compose (eval_tv flat m.g g) (if g = site then stuck else eval_tv flat m.f g)
  in
  (* Assignment trail for chronological backtracking. *)
  let trail = ref [] in
  let assign g x =
    if m.g.(g) = TX then begin
      m.g.(g) <- good x;
      m.f.(g) <- faulty x;
      trail := g :: !trail
    end
    else if value g <> x then raise Conflict
  in
  let mark () = List.length !trail in
  let undo_to mk =
    while List.length !trail > mk do
      match !trail with
      | g :: rest ->
          m.g.(g) <- TX;
          m.f.(g) <- TX;
          trail := rest
      | [] -> ()
    done
  in
  (* Forward implication: one sweep in topological order.  A gate reads
     only sources, which evaluate to what they hold and so never change,
     and gates evaluated earlier in the same sweep, so its inputs are
     final when it is reached; a second sweep would evaluate every net to
     the value it already holds, and could neither assign nor detect a
     conflict. *)
  let imply () =
    Array.iter (fun g -> match eval g with X -> () | x -> assign g x) order
  in
  (* J-frontier: assigned gate outputs not yet implied by their inputs
     (an assigned source implies itself).  The fault site is justified
     when the good plane of its evaluation matches the activation value;
     its inputs lie outside its cone, where the planes agree, so the good
     plane alone decides. *)
  let site_justified () = eval_tv flat m.g site = tv_not stuck in
  let j_frontier () =
    List.filter
      (fun g -> if g = site then not (site_justified ()) else eval g = X)
      (List.rev !trail)
  in
  (* Singular covers: alternative input cubes justifying [value] at a
     gate.  Values here are plain (the fault effect is only generated at
     the site and driven forward, never justified backward). *)
  let cubes g value =
    let f = Netlist.fanin nl g in
    let pin k x = (f.(k), x) in
    match (Netlist.kind nl g, value) with
    | Cell.Buf, _ -> [ [ pin 0 value ] ]
    | Cell.Inv, _ -> [ [ pin 0 (neg value) ] ]
    | Cell.And2, One -> [ [ pin 0 One; pin 1 One ] ]
    | Cell.And2, Zero -> [ [ pin 0 Zero ]; [ pin 1 Zero ] ]
    | Cell.Nand2, Zero -> [ [ pin 0 One; pin 1 One ] ]
    | Cell.Nand2, One -> [ [ pin 0 Zero ]; [ pin 1 Zero ] ]
    | Cell.Or2, Zero -> [ [ pin 0 Zero; pin 1 Zero ] ]
    | Cell.Or2, One -> [ [ pin 0 One ]; [ pin 1 One ] ]
    | Cell.Nor2, One -> [ [ pin 0 Zero; pin 1 Zero ] ]
    | Cell.Nor2, Zero -> [ [ pin 0 One ]; [ pin 1 One ] ]
    | Cell.Xor2, One -> [ [ pin 0 One; pin 1 Zero ]; [ pin 0 Zero; pin 1 One ] ]
    | Cell.Xor2, Zero -> [ [ pin 0 Zero; pin 1 Zero ]; [ pin 0 One; pin 1 One ] ]
    | Cell.Xnor2, Zero -> [ [ pin 0 One; pin 1 Zero ]; [ pin 0 Zero; pin 1 One ] ]
    | Cell.Xnor2, One -> [ [ pin 0 Zero; pin 1 Zero ]; [ pin 0 One; pin 1 One ] ]
    | Cell.Mux2, _ ->
        [ [ pin 0 Zero; pin 1 value ]; [ pin 0 One; pin 2 value ] ]
    | _ -> []
  in
  (* D-frontier: gates whose output is X with an error on some input, and
     the side assignments that drive the error through. *)
  let d_frontier () =
    let frontier = Dcalc.d_frontier flat cone m in
    let n = List.length frontier in
    Obs.observe h_frontier (float_of_int n);
    Obs.max_gauge g_frontier_peak n;
    frontier
  in
  let drive_cubes g =
    let f = Netlist.fanin nl g in
    let side k value = (f.(k), value) in
    match Netlist.kind nl g with
    | Cell.Buf | Cell.Inv -> [ [] ]
    | Cell.And2 | Cell.Nand2 ->
        if is_d m f.(0) then [ [ side 1 One ] ]
        else [ [ side 0 One ] ]
    | Cell.Or2 | Cell.Nor2 ->
        if is_d m f.(0) then [ [ side 1 Zero ] ]
        else [ [ side 0 Zero ] ]
    | Cell.Xor2 | Cell.Xnor2 ->
        if is_d m f.(0) then [ [ side 1 Zero ]; [ side 1 One ] ]
        else [ [ side 0 Zero ]; [ side 0 One ] ]
    | Cell.Mux2 ->
        if is_d m f.(0) then
          (* Error on the select: the data inputs must differ. *)
          [ [ side 1 Zero; side 2 One ]; [ side 1 One; side 2 Zero ] ]
        else if is_d m f.(1) then [ [ side 0 Zero ] ]
        else [ [ side 0 One ] ]
    | _ -> []
  in
  let decisions = ref 0 in
  let bump () =
    incr decisions;
    Obs.incr c_decisions;
    if !decisions > decision_limit then raise Give_up;
    match budget with
    | Some b when not (Budget.spend b) -> raise Give_up
    | _ -> ()
  in
  let rec solve () =
    match imply () with
    | exception Conflict -> false
    | () ->
        if observable_d flat cone m then
          (* Error observed: discharge the first justification obligation.
             The site is on the trail from activation on, so an empty
             J-frontier means it is justified too. *)
          match j_frontier () with
          | [] -> true
          | g :: _ ->
              let target =
                if g = site then if fault.f_stuck then Zero else One
                else value g
              in
              List.exists try_cube (cubes g target)
        else
          (* Drive the error through one frontier gate; the implication
             that starts the next step claims the gate's output.  Assigned
             nets never change within a branch, so a frontier with no X
             path to an observation point can never be driven out: the
             branch fails without trying a cube. *)
          let frontier = d_frontier () in
          x_path_exists flat xp m frontier
          && List.exists (fun g -> List.exists try_cube (drive_cubes g)) frontier
  (* Assign one cube and search on; undo it if that fails. *)
  and try_cube cube =
    bump ();
    let mk = mark () in
    (match List.iter (fun (p, x) -> assign p x) cube with
    | () -> solve ()
    | exception Conflict -> false)
    ||
    (undo_to mk;
     false)
  in
  (* Activation.  Constants are pinned first so no cube can "justify" a
     value by writing onto a tied-off net. *)
  let activation = if fault.f_stuck then Db else D in
  let result =
    try
      Array.iter
        (fun g ->
          if kinds.(g) = Flat.k_const0 then assign g Zero
          else if kinds.(g) = Flat.k_const1 then assign g One)
        order;
      assign site activation;
      if solve () then `Test else `No_test
    with
    | Give_up -> `Abort
    | Conflict -> `No_test
  in
  match result with
  | `Abort -> Aborted
  | `No_test -> Untestable
  | `Test ->
      let npi = Array.length flat.Flat.pis in
      let vec = Bitvec.create (npi + Array.length flat.Flat.dffs) in
      Array.iteri
        (fun i net -> if m.g.(net) = T1 then Bitvec.set vec i true)
        flat.Flat.pis;
      Array.iteri
        (fun i net -> if m.g.(net) = T1 then Bitvec.set vec (npi + i) true)
        flat.Flat.dffs;
      Test vec

type stats = {
  detected : int;
  redundant : int;
  aborted : int;
  total : int;
  coverage : float;
  efficiency : float;
}

let run ?decision_limit ?(sample = 1) ?budget nl =
  Obs.with_span ~cat:"atpg" "dalg.run" @@ fun () ->
  let faults =
    Fault.collapse nl |> List.filteri (fun i _ -> i mod max 1 sample = 0)
  in
  let det = ref 0 and red = ref 0 and ab = ref 0 in
  List.iter
    (fun f ->
      (* Between faults an exhausted budget degrades the rest to aborted
         (no search is attempted); within a fault, [bump] checks it. *)
      if match budget with Some b -> Budget.exhausted b | None -> false then
        incr ab
      else
        match generate ?decision_limit ?budget nl f with
        | Test _ -> incr det
        | Untestable -> incr red
        | Aborted -> incr ab)
    faults;
  let total = List.length faults in
  let pct x = if total = 0 then 0.0 else 100.0 *. float_of_int x /. float_of_int total in
  {
    detected = !det;
    redundant = !red;
    aborted = !ab;
    total;
    coverage = pct !det;
    efficiency = pct (!det + !red);
  }
