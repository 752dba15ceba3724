open Socet_util
open Socet_netlist
module Obs = Socet_obs.Obs
open Dcalc

(* Observability: PODEM's effort is dominated by its decision/backtrack
   loop, so those are the counters every perf PR will watch. *)
let c_faults = Obs.counter ~scope:"atpg" "podem.faults_targeted"

let c_decisions = Obs.counter ~scope:"atpg" "podem.decisions"
let c_backtracks = Obs.counter ~scope:"atpg" "podem.backtracks"
let h_backtracks = Obs.histogram ~scope:"atpg" "podem.backtracks_per_fault"

(* Adaptive-budget telemetry: one escalation per fault per pass that had
   to be retried with a larger backtrack limit (ROADMAP: the
   backtracks_per_fault histogram is bimodal, so most faults never leave
   the cheap first pass). *)
let c_escalations = Obs.counter ~scope:"atpg" "podem.budget_escalations"

(* One outcome per [generate] call, and the decisions spent on searches
   that aborted: the effort the budget escalation throws away. *)
let c_outcome_test = Obs.counter ~scope:"atpg" "podem.outcome_test"
let c_outcome_untestable = Obs.counter ~scope:"atpg" "podem.outcome_untestable"
let c_outcome_aborted = Obs.counter ~scope:"atpg" "podem.outcome_aborted"
let c_decisions_in_aborted = Obs.counter ~scope:"atpg" "podem.decisions_in_aborted"

type outcome = Test of Bitvec.t | Untestable | Aborted

let generate ?(backtrack_limit = 1000) ?scoap ?budget nl (fault : Fault.t) =
  Obs.incr c_faults;
  let flat = Flat.of_netlist nl in
  let n = flat.Flat.n in
  let kinds = flat.Flat.kinds in
  let fi_off = flat.Flat.fanin_off and fi = flat.Flat.fanin in
  let fo_off = flat.Flat.fanout_off and fo = flat.Flat.fanout in
  let level = flat.Flat.level in
  let npi = Array.length flat.Flat.pis in
  let ninputs = npi + Array.length flat.Flat.dffs in
  let input_net i =
    if i < npi then flat.Flat.pis.(i) else flat.Flat.dffs.(i - npi)
  in
  let assign = Array.make ninputs TX in
  let m = Dcalc.create n in
  let site = fault.f_net in
  let stuck = tv_of_bool fault.f_stuck in
  (* Only the site's combinational fanout can carry a D, so the frontier
     and observation checks scan the fault cone alone. *)
  let cone, _ = Flat.cone flat site in
  (* The all-X state, evaluated in full once.  Inputs of the faulty
     machine mirror the good machine except at the site. *)
  Array.iter
    (fun g ->
      let gv = eval_tv flat m.g g in
      m.g.(g) <- gv;
      m.f.(g) <-
        (if g = site then stuck
         else if kinds.(g) = Flat.k_pi || kinds.(g) >= Flat.k_dff then gv
         else eval_tv flat m.f g))
    flat.Flat.order;
  (* Event-driven implication.  Ternary values are a function of the
     assignment, so a changed input only re-evaluates its combinational
     fanout, level by level; no trail is needed to undo a backtrack.
     Bucket [l] occupies [bucket.(lvl_off.(l)) ..] with [lvl_fill.(l)]
     entries — at most the gate count of that level, since [queued] keeps
     each gate in its bucket once. *)
  let max_level = Array.fold_left max 0 level in
  let lvl_off = Array.make (max_level + 2) 0 in
  for g = 0 to n - 1 do
    if kinds.(g) < Flat.k_dff then
      lvl_off.(level.(g) + 1) <- lvl_off.(level.(g) + 1) + 1
  done;
  for l = 1 to max_level + 1 do
    lvl_off.(l) <- lvl_off.(l) + lvl_off.(l - 1)
  done;
  let lvl_fill = Array.make (max_level + 1) 0 in
  let bucket = Array.make (max 1 n) 0 in
  let queued = Bytes.make n '\000' in
  let top = ref 0 in
  let schedule_readers net =
    for e = fo_off.(net) to fo_off.(net + 1) - 1 do
      let h = fo.(e) in
      if kinds.(h) < Flat.k_dff && Bytes.get queued h = '\000' then begin
        Bytes.set queued h '\001';
        let l = level.(h) in
        bucket.(lvl_off.(l) + lvl_fill.(l)) <- h;
        lvl_fill.(l) <- lvl_fill.(l) + 1;
        if l > !top then top := l
      end
    done
  in
  let set_input i =
    let net = input_net i in
    let gv = assign.(i) in
    let fv = if net = site then stuck else gv in
    if gv <> m.g.(net) || fv <> m.f.(net) then begin
      m.g.(net) <- gv;
      m.f.(net) <- fv;
      schedule_readers net
    end
  in
  let propagate () =
    let l = ref 1 in
    while !l <= !top do
      let base = lvl_off.(!l) in
      (* Readers sit at strictly higher levels, so this bucket is complete
         once processing reaches it. *)
      for j = base to base + lvl_fill.(!l) - 1 do
        let g = bucket.(j) in
        Bytes.set queued g '\000';
        let gv = eval_tv flat m.g g in
        let fv = if g = site then stuck else eval_tv flat m.f g in
        if gv <> m.g.(g) || fv <> m.f.(g) then begin
          m.g.(g) <- gv;
          m.f.(g) <- fv;
          schedule_readers g
        end
      done;
      lvl_fill.(!l) <- 0;
      incr l
    done;
    top := 0
  in
  (* X-path check scratch: can a D on the frontier still reach an
     observation point through X-valued nets? *)
  let xp = Dcalc.xpath_scratch flat in
  (* Fault effect can also still be unactivated but activatable. *)
  let site_ok () =
    match m.g.(site) with
    | TX -> true
    | v -> v <> stuck
  in
  (* SCOAP guidance: cheapest controllability for a wanted value, most
     observable D-frontier gate. *)
  let cc net v =
    match (scoap, v) with
    | Some (s : Scoap.t), T0 -> s.Scoap.cc0.(net)
    | Some s, T1 -> s.Scoap.cc1.(net)
    | _ -> 0
  in
  let frontier_rank g =
    match scoap with Some (s : Scoap.t) -> s.Scoap.co.(g) | None -> 0
  in
  let objective frontier =
    if m.g.(site) = TX then Some (site, tv_not stuck)
    else
      (* The first frontier gate of minimal rank among those with an
         unassigned input.  A gate whose good inputs are all set but whose
         faulty output is still X offers no objective; picking it would
         backtrack a live search and could report a testable fault as
         redundant. *)
      let has_x_pin g =
        let rec go e = e < fi_off.(g + 1) && (m.g.(fi.(e)) = TX || go (e + 1)) in
        go fi_off.(g)
      in
      let best =
        List.fold_left
          (fun best g ->
            match best with
            | Some b when frontier_rank b <= frontier_rank g -> best
            | _ -> if has_x_pin g then Some g else best)
          None frontier
      in
      match best with
      | None -> None
      | Some gate ->
          let fanin = Netlist.fanin nl gate in
          let xpins =
            Array.to_list fanin |> List.filter (fun p -> m.g.(p) = TX)
          in
          (match xpins with
          | [] -> None
          | pin :: _ ->
              let v =
                match Netlist.kind nl gate with
                | Cell.And2 | Cell.Nand2 -> T1
                | Cell.Or2 | Cell.Nor2 -> T0
                | Cell.Mux2 ->
                    if pin = fanin.(0) then
                      (* Select the data input carrying the D. *)
                      if is_d m fanin.(1) then T0 else T1
                    else T1
                | _ -> T1
              in
              Some (pin, v))
  in
  let input_index net =
    if flat.Flat.pi_of.(net) >= 0 then Some flat.Flat.pi_of.(net)
    else if flat.Flat.dff_of.(net) >= 0 then Some (npi + flat.Flat.dff_of.(net))
    else None
  in
  let rec backtrace net v =
    match input_index net with
    | Some i -> if assign.(i) = TX then Some (i, v) else None
    | None -> (
        let fanin = Netlist.fanin nl net in
        (* Among the unassigned fanins, the first one SCOAP deems easiest
           to drive to the value this branch will request. *)
        let pick_x_for target =
          Array.fold_left
            (fun best p ->
              if m.g.(p) <> TX then best
              else
                match best with
                | Some b when cc b target <= cc p target -> best
                | _ -> Some p)
            None fanin
        in
        match Netlist.kind nl net with
        | Cell.Buf -> backtrace fanin.(0) v
        | Cell.Inv -> backtrace fanin.(0) (tv_not v)
        | Cell.And2 | Cell.Or2 -> (
            match pick_x_for v with Some p -> backtrace p v | None -> None)
        | Cell.Nand2 | Cell.Nor2 -> (
            match pick_x_for (tv_not v) with
            | Some p -> backtrace p (tv_not v)
            | None -> None)
        | Cell.Xor2 | Cell.Xnor2 -> (
            match pick_x_for v with Some p -> backtrace p v | None -> None)
        | Cell.Mux2 ->
            if m.g.(fanin.(1)) = TX then backtrace fanin.(1) v
            else if m.g.(fanin.(2)) = TX then backtrace fanin.(2) v
            else if m.g.(fanin.(0)) = TX then
              backtrace fanin.(0) (if m.g.(fanin.(1)) = v then T0 else T1)
            else None
        | _ -> None)
  in
  (* Decision stack: (input index, value, flipped already?). *)
  let stack = ref [] in
  let decisions = ref 0 in
  let backtracks = ref 0 in
  let result = ref None in
  while !result = None do
    if (match budget with Some b -> not (Budget.spend b) | None -> false) then
      (* Fuel or deadline gone mid-search: degrade to Aborted so the
         caller's ladder (escalated retry, random top-off) can take over. *)
      result := Some Aborted
    else if observable_d flat cone m then begin
      let vec = Bitvec.create ninputs in
      Array.iteri (fun i v -> if v = T1 then Bitvec.set vec i true) assign;
      result := Some (Test vec)
    end
    else begin
      let frontier = d_frontier flat cone m in
      let dead =
        (not (site_ok ()))
        || (m.g.(site) <> TX && frontier = [])
        || (frontier <> [] && not (x_path_exists flat xp m frontier))
      in
      let next_decision =
        if dead then None
        else
          match objective frontier with
          | None -> None
          | Some (net, v) -> backtrace net v
      in
      match next_decision with
      | Some (i, v) ->
          incr decisions;
          Obs.incr c_decisions;
          assign.(i) <- v;
          stack := (i, v, false) :: !stack;
          set_input i;
          propagate ()
      | None ->
          (* Backtrack: clear flipped decisions, flip the newest unflipped
             one, then re-propagate every input that changed. *)
          incr backtracks;
          Obs.incr c_backtracks;
          if !backtracks > backtrack_limit then result := Some Aborted
          else begin
            let rec pop () =
              match !stack with
              | [] -> result := Some Untestable
              | (i, v, flipped) :: rest ->
                  if flipped then begin
                    assign.(i) <- TX;
                    set_input i;
                    stack := rest;
                    pop ()
                  end
                  else begin
                    let v' = tv_not v in
                    assign.(i) <- v';
                    set_input i;
                    stack := (i, v', true) :: rest
                  end
            in
            pop ();
            if !result = None then propagate ()
          end
    end
  done;
  Obs.observe h_backtracks (float_of_int !backtracks);
  let r = match !result with Some r -> r | None -> assert false in
  (match r with
  | Test _ -> Obs.incr c_outcome_test
  | Untestable -> Obs.incr c_outcome_untestable
  | Aborted ->
      Obs.incr c_outcome_aborted;
      Obs.add c_decisions_in_aborted !decisions);
  r

type stats = {
  vectors : Bitvec.t list;
  detected : Fault.t list;
  redundant : Fault.t list;
  aborted : Fault.t list;
  total_faults : int;
  coverage : float;
  efficiency : float;
}

let run ?(backtrack_limit = 1000) ?(random_patterns = 64) ?(seed = 42)
    ?(use_scoap = true) ?budget nl =
  Obs.with_span ~cat:"atpg" "podem.run" @@ fun () ->
  let scoap = if use_scoap then Some (Scoap.compute nl) else None in
  let faults = Fault.collapse nl in
  let total = List.length faults in
  let rng = Rng.create seed in
  let veclen = Fsim.vector_length nl in
  let vectors = ref [] in
  let remaining = ref faults in
  let detected = ref [] in
  (* Phase 1: random patterns with fault dropping. *)
  if random_patterns > 0 && veclen > 0 then
    Obs.with_span ~cat:"atpg" "podem.random_phase" (fun () ->
        let random_vecs =
          List.init random_patterns (fun _ -> Rng.bitvec rng veclen)
        in
        let hit = Fsim.run_comb nl ~vectors:random_vecs ~faults:!remaining in
        (* Keep only the random vectors that contribute; cheap pre-compaction. *)
        let contributing =
          Compact.reverse_order nl ~vectors:random_vecs ~faults:hit
        in
        vectors := contributing;
        detected := hit;
        remaining :=
          List.filter (fun f -> not (List.exists (Fault.equal f) hit)) !remaining);
  (* Phase 2: deterministic PODEM with fault dropping and an adaptive
     backtrack budget.  The backtracks_per_fault histogram is bimodal
     (p50 around 5, p99 at the limit), so a small first-pass limit covers
     the easy mode cheaply; faults that abort are pushed to the end of the
     queue and retried with the limit multiplied, up to the caller's
     [backtrack_limit].  The final pass runs at exactly [backtrack_limit],
     so the aborted set is the same one a flat run would produce — only
     the wasted effort on hard faults moves. *)
  let redundant = ref [] and aborted = ref [] in
  let budget_alive () =
    match budget with None -> true | Some b -> not (Budget.exhausted b)
  in
  let determ () =
    let limit = ref (min 32 backtrack_limit) in
    let queue = ref !remaining in
    let stop = ref false in
    while not !stop do
      let retry = ref [] in
      let pass_on = ref true in
      while !pass_on do
        match !queue with
        | [] -> pass_on := false
        | _ when not (budget_alive ()) ->
            (* Out of fuel/deadline: everything still queued is aborted;
               vectors found so far remain valid. *)
            aborted := !queue @ !retry @ !aborted;
            retry := [];
            queue := [];
            pass_on := false;
            stop := true
        | f :: rest -> (
            queue := rest;
            match generate ~backtrack_limit:!limit ?scoap ?budget nl f with
            | Untestable -> redundant := f :: !redundant
            | Aborted -> retry := f :: !retry
            | Test vec ->
                detected := f :: !detected;
                let extra = Fsim.run_comb nl ~vectors:[ vec ] ~faults:!queue in
                detected := extra @ !detected;
                queue :=
                  List.filter
                    (fun f' -> not (List.exists (Fault.equal f') extra))
                    !queue;
                vectors := vec :: !vectors)
      done;
      if not !stop then begin
        match !retry with
        | [] -> stop := true
        | rs when !limit >= backtrack_limit ->
            aborted := rs @ !aborted;
            stop := true
        | rs ->
            Obs.add c_escalations (List.length rs);
            limit := min (!limit * 8) backtrack_limit;
            queue := List.rev rs
      end
    done
  in
  Obs.with_span ~cat:"atpg" "podem.determ_phase" determ;
  let final_vectors =
    Compact.reverse_order nl ~vectors:(List.rev !vectors) ~faults:!detected
  in
  (* Re-measure against the full fault list: compaction keeps the coverage
     of the deterministic run, and the kept vectors may collaterally catch
     faults the search had to abort on, or even ones it called untestable
     (the search's [Untestable] is not sound on every netlist).  A fault
     the final vectors detect is detected, whatever the search said. *)
  let final_detected = Fsim.run_comb nl ~vectors:final_vectors ~faults in
  let undetected =
    List.filter (fun f -> not (List.exists (Fault.equal f) final_detected))
  in
  let redundant = undetected !redundant and aborted = undetected !aborted in
  let ndet = List.length final_detected and nred = List.length redundant in
  {
    vectors = final_vectors;
    detected = final_detected;
    redundant;
    aborted;
    total_faults = total;
    coverage = (if total = 0 then 0.0 else 100.0 *. float_of_int ndet /. float_of_int total);
    efficiency =
      (if total = 0 then 0.0
       else 100.0 *. float_of_int (ndet + nred) /. float_of_int total);
  }
