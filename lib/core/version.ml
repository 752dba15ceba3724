open Socet_rtl
open Rtl_types
module Digraph = Socet_graph.Digraph
module Obs = Socet_obs.Obs

let c_ladders = Obs.counter ~scope:"core" "version.ladders_generated"

let freeze_cost = 3
let activation_cost ~ctrl = (2 * ctrl) + 1
let tmux_cost ~width = 5 * width

type pair = {
  pr_input : int;
  pr_output : int;
  pr_latency : int;
  pr_sol : Tsearch.sol;
}

type t = {
  v_index : int;
  v_prop : (int * Tsearch.sol) list;
  v_just : (int * Tsearch.sol) list;
  v_overhead : int;
  v_added_muxes : (int * int * int) list;
  v_pairs : pair list;
}

(* ------------------------------------------------------------------ *)
(* Cost model.  A version's overhead is the price of all transparency
   hardware its (and its predecessors') solutions rely on: hold logic for
   every frozen register, steering logic for every non-HSCAN edge used,
   and the full multiplexer for every synthesized edge.  Computing it from
   the solution sets keeps the accounting correct under solution merging —
   hardware is priced once however many paths share it. *)
(* ------------------------------------------------------------------ *)

let edge_cost (e : Rcg.edge_label Digraph.edge) =
  if e.label.Rcg.e_hscan then 0
  else if e.label.Rcg.e_transfer < 0 then
    tmux_cost ~width:(range_width e.label.Rcg.e_dst_range)
  else
    match e.label.Rcg.e_via with
    | `Mux ctrl -> activation_cost ~ctrl
    | `Direct -> 1

let cost_of_sols sols =
  let freezes = Hashtbl.create 8 and edges = Hashtbl.create 8 in
  let total = ref 0 in
  List.iter
    (fun (s : Tsearch.sol) ->
      List.iter
        (fun (node, _) ->
          if not (Hashtbl.mem freezes node) then begin
            Hashtbl.replace freezes node ();
            total := !total + freeze_cost
          end)
        s.Tsearch.s_freezes;
      List.iter
        (fun (e : Rcg.edge_label Digraph.edge) ->
          if not (Hashtbl.mem edges e.id) then begin
            Hashtbl.replace edges e.id ();
            total := !total + edge_cost e
          end)
        s.Tsearch.s_edges)
    sols;
  !total

(* ------------------------------------------------------------------ *)
(* Search orchestration                                                 *)
(* ------------------------------------------------------------------ *)

let hscan_only (e : Rcg.edge_label Digraph.edge) = e.label.Rcg.e_hscan
let any_edge (_ : Rcg.edge_label Digraph.edge) = true

(* Version 1 tries the HSCAN chains alone, then falls back to a search
   that may use other edges but still prefers chain edges; later versions
   search freely. *)
let solve_with_mode ~mode ~solve =
  match mode with
  | `Hscan_first -> (
      match solve ~prefer_hscan:false ~allowed:hscan_only with
      | Some s -> Some s
      | None -> solve ~prefer_hscan:true ~allowed:any_edge)
  | `Free -> solve ~prefer_hscan:false ~allowed:any_edge

let insert_mux rcg ~src ~output =
  let sw = (Rcg.node rcg src).Rcg.n_width in
  let ow = (Rcg.node rcg output).Rcg.n_width in
  let w = min sw ow in
  let e =
    Digraph.add_edge (Rcg.graph rcg) ~src ~dst:output
      {
        Rcg.e_src_range = full w;
        e_dst_range = full w;
        e_via = `Mux 0;
        e_transfer = -1;
        e_hscan = false;
        e_enabled = true;
      }
  in
  (e, (src, output, w))

(* Rescue hardware (Sec. 4's last resort): a transparency mux into
   [output], fed from a register one cycle away from [input] (the paper's
   choice) or, failing that, straight from the input.  Candidates are
   tried in turn; an unhelpful mux is disabled again, so failed attempts
   leave no phantom hardware behind (disabled edges never enter a
   solution and therefore cost nothing). *)
let rescue rcg ~input ~output ~solve =
  let candidates = Tsearch.reach_in_one_cycle rcg ~input @ [ input ] in
  let rec attempt = function
    | [] -> None
    | src :: rest -> (
        let e, mux = insert_mux rcg ~src ~output in
        match solve () with
        | Some s -> Some (s, mux)
        | None ->
            e.Digraph.label.Rcg.e_enabled <- false;
            attempt rest)
  in
  attempt candidates

(* A rung's hardware includes every earlier rung's, so each pair of the
   previous rung [prev] is still available: it is kept wherever this
   rung's solutions lost that (input, output) pair or only found a
   slower one. *)
let pairs_of rcg ~prev ~prop ~just =
  let tbl = Hashtbl.create 16 in
  let consider input output latency sol =
    match Hashtbl.find_opt tbl (input, output) with
    | Some p when p.pr_latency <= latency -> ()
    | _ ->
        Hashtbl.replace tbl (input, output)
          { pr_input = input; pr_output = output; pr_latency = latency; pr_sol = sol }
  in
  List.iter
    (fun (i, (sol : Tsearch.sol)) ->
      match sol.Tsearch.s_terminals with
      | [ o ] -> consider i o sol.Tsearch.s_latency sol
      | _ -> ())
    prop;
  List.iter
    (fun (o, (sol : Tsearch.sol)) ->
      match sol.Tsearch.s_terminals with
      | [ i ] -> consider i o sol.Tsearch.s_latency sol
      | _ -> ())
    just;
  List.iter
    (fun p ->
      match Hashtbl.find_opt tbl (p.pr_input, p.pr_output) with
      | Some q when q.pr_latency <= p.pr_latency -> ()
      | _ -> Hashtbl.replace tbl (p.pr_input, p.pr_output) p)
    prev;
  ignore rcg;
  Hashtbl.fold (fun _ p acc -> p :: acc) tbl []
  |> List.sort (fun a b ->
         compare (a.pr_input, a.pr_output) (b.pr_input, b.pr_output))

let solve_all rcg ~mode =
  let inputs = Rcg.input_ids rcg in
  let outputs = Rcg.output_ids rcg in
  let used_outputs = ref [] in
  let prop =
    List.filter_map
      (fun i ->
        let solve ~prefer_hscan ~allowed =
          Tsearch.propagate rcg ~prefer_hscan ~allowed ~input:i ()
        in
        let result =
          match solve_with_mode ~mode ~solve with
          | Some s -> Some s
          | None -> (
              (* Rescue toward an output not yet used for transparency,
                 as the paper prefers. *)
              let target =
                match
                  List.find_opt (fun o -> not (List.mem o !used_outputs)) outputs
                with
                | Some o -> Some o
                | None -> ( match outputs with o :: _ -> Some o | [] -> None)
              in
              match target with
              | None -> None
              | Some o ->
                  rescue rcg ~input:i ~output:o ~solve:(fun () ->
                      solve ~prefer_hscan:true ~allowed:any_edge)
                  |> Option.map fst)
        in
        match result with
        | Some s ->
            used_outputs := s.Tsearch.s_terminals @ !used_outputs;
            Some (i, s)
        | None -> None)
      inputs
  in
  let just =
    List.filter_map
      (fun o ->
        let solve ~prefer_hscan ~allowed =
          Tsearch.justify rcg ~prefer_hscan ~allowed ~output:o ()
        in
        match solve_with_mode ~mode ~solve with
        | Some s -> Some (o, s)
        | None -> (
            match inputs with
            | [] -> None
            | i :: _ ->
                rescue rcg ~input:i ~output:o ~solve:(fun () ->
                    solve ~prefer_hscan:true ~allowed:any_edge)
                |> Option.map (fun (s, _) -> (o, s))))
      outputs
  in
  (prop, just)

(* Per-item merge: keep the lower-latency solution, preferring the
   incumbent on ties (its hardware is already paid for). *)
let merge_items current candidate =
  List.map
    (fun (k, (cur : Tsearch.sol)) ->
      match List.assoc_opt k candidate with
      | Some (cand : Tsearch.sol) when cand.Tsearch.s_latency < cur.Tsearch.s_latency ->
          (k, cand)
      | _ -> (k, cur))
    current
  @ List.filter (fun (k, _) -> not (List.mem_assoc k current)) candidate

let merge_sols (cur_prop, cur_just) (cand_prop, cand_just) =
  (merge_items cur_prop cand_prop, merge_items cur_just cand_just)

let latencies_signature (prop, just) =
  ( List.map (fun (i, (s : Tsearch.sol)) -> (i, s.Tsearch.s_latency)) prop
    |> List.sort compare,
    List.map (fun (o, (s : Tsearch.sol)) -> (o, s.Tsearch.s_latency)) just
    |> List.sort compare )

let generate ?(max_versions = 3) rcg =
  Obs.with_span ~cat:"core" "version.generate" @@ fun () ->
  Obs.incr c_ladders;
  let accumulated = ref [] in
  (* hardware of adopted rungs *)
  let muxes_so_far = ref [] in
  let overhead_with (prop, just) =
    cost_of_sols (!accumulated @ List.map snd prop @ List.map snd just)
  in
  let last_pairs = ref [] in
  let mk index sols =
    let prop, just = sols in
    let pairs = pairs_of rcg ~prev:!last_pairs ~prop ~just in
    last_pairs := pairs;
    {
      v_index = index;
      v_prop = prop;
      v_just = just;
      v_overhead = overhead_with sols;
      v_added_muxes = List.rev !muxes_so_far;
      v_pairs = pairs;
    }
  in
  let adopt sols =
    let prop, just = sols in
    accumulated := !accumulated @ List.map snd prop @ List.map snd just
  in
  (* Version 1: HSCAN chains first. *)
  let v1_sols = solve_all rcg ~mode:`Hscan_first in
  adopt v1_sols;
  let versions = ref [ mk 1 v1_sols ] in
  let current = ref v1_sols in
  let index = ref 1 in
  (* Next rung: let the search steer every existing (non-HSCAN) path;
     keep, per input/output, whichever solution is faster. *)
  let v2_sols = merge_sols !current (solve_all rcg ~mode:`Free) in
  if latencies_signature v2_sols <> latencies_signature !current then begin
    let prior = (List.hd !versions).v_overhead in
    if overhead_with v2_sols = prior then begin
      (* Free improvement (reuses hardware already paid for): fold into
         the current rung rather than minting a new version. *)
      adopt v2_sols;
      current := v2_sols;
      versions := mk !index v2_sols :: List.tl !versions
    end
    else begin
      adopt v2_sols;
      incr index;
      current := v2_sols;
      versions := mk !index v2_sols :: !versions
    end
  end;
  (* Further rungs: one transparency multiplexer at a time, aimed at the
     slowest (then widest) output still above one cycle. *)
  let continue_ladder = ref true in
  while !continue_ladder && !index < max_versions do
    let _, just = !current in
    let candidates =
      List.filter (fun (_, (s : Tsearch.sol)) -> s.Tsearch.s_latency > 1) just
      |> List.sort (fun (oa, (sa : Tsearch.sol)) (ob, (sb : Tsearch.sol)) ->
             compare
               (sb.Tsearch.s_latency, (Rcg.node rcg ob).Rcg.n_width)
               (sa.Tsearch.s_latency, (Rcg.node rcg oa).Rcg.n_width))
    in
    match candidates with
    | [] -> continue_ladder := false
    | (o, (sol : Tsearch.sol)) :: _ -> (
        let input =
          match sol.Tsearch.s_terminals with
          | i :: _ -> Some i
          | [] -> ( match Rcg.input_ids rcg with i :: _ -> Some i | [] -> None)
        in
        match input with
        | None -> continue_ladder := false
        | Some i ->
            let src =
              match Tsearch.reach_in_one_cycle rcg ~input:i with
              | r :: _ -> r
              | [] -> i
            in
            let e, m = insert_mux rcg ~src ~output:o in
            let sols = merge_sols !current (solve_all rcg ~mode:`Free) in
            if latencies_signature sols = latencies_signature !current then begin
              e.Digraph.label.Rcg.e_enabled <- false;
              continue_ladder := false
            end
            else begin
              muxes_so_far := m :: !muxes_so_far;
              adopt sols;
              incr index;
              current := sols;
              versions := mk !index sols :: !versions
            end)
  done;
  List.rev !versions

let latency_between v ~input ~output =
  List.find_opt (fun p -> p.pr_input = input && p.pr_output = output) v.v_pairs
  |> Option.map (fun p -> p.pr_latency)

let total_latency v =
  List.fold_left (fun acc (_, (s : Tsearch.sol)) -> acc + s.Tsearch.s_latency) 0 v.v_just
