module Obs = Socet_obs.Obs
module Budget = Socet_util.Budget
module Pool = Socet_util.Pool

(* Observability: the iterative-improvement optimizer is measured in
   design points evaluated (each one a full schedule build) and in
   improvement steps taken.  [memo_hits] counts per-core tests served
   from the route memo instead of being re-routed; [opt_steps] /
   [opt_memo_hits] are the same signals restricted to the bounded
   optimizer loops (vs the exhaustive design-space sweep). *)
let c_evals = Obs.counter ~scope:"core" "select.points_evaluated"
let c_steps = Obs.counter ~scope:"core" "select.steps"
let c_memo_hits = Obs.counter ~scope:"core" "select.memo_hits"
let c_opt_steps = Obs.counter ~scope:"core" "select.opt_steps"
let c_opt_memo_hits = Obs.counter ~scope:"core" "select.opt_memo_hits"

type point = {
  pt_choice : (string * int) list;
  pt_smuxes : Schedule.smux_request list;
  pt_schedule : Schedule.t;
  pt_area : int;
  pt_time : int;
}

let evaluate soc ~choice ?(smuxes = []) () =
  Obs.incr c_evals;
  let s = Schedule.build soc ~choice ~smuxes () in
  {
    pt_choice = choice;
    pt_smuxes = smuxes;
    pt_schedule = s;
    pt_area = s.Schedule.s_area_overhead;
    pt_time = s.Schedule.s_total_time;
  }

(* ------------------------------------------------------------------ *)
(* Per-core dependency cones                                           *)
(* ------------------------------------------------------------------ *)

(* Which cores' version choices can influence core [X]'s test: routes
   justifying X's inputs ride directed paths PI -> ... -> X.in, so only
   cores with a directed path to X matter on the justify side; dually,
   observation rides X.out -> ... -> PO, so only cores reachable from X
   matter on the observe side.  Closing the core-to-core connection
   graph gives static per-side dependency sets — two full choices
   agreeing on X's justify (observe) set yield bit-identical justify
   (observe) routes for X.  X itself only joins a set when it sits on a
   connection cycle (a route could then re-enter its own transparency). *)
let dependency_sets soc =
  let preds = Hashtbl.create 16 and succs = Hashtbl.create 16 in
  let push tbl k v =
    let cur = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
    if not (List.mem v cur) then Hashtbl.replace tbl k (v :: cur)
  in
  List.iter
    (fun (c : Soc.connection) ->
      match (c.Soc.c_from, c.Soc.c_to) with
      | Soc.Cport (a, _), Soc.Cport (b, _) when a <> b ->
          push preds b a;
          push succs a b
      | _ -> ())
    soc.Soc.conns;
  (* Proper reachability: [seed] is included only via a cycle back to
     itself, not by fiat. *)
  let reach tbl seed =
    let seen = Hashtbl.create 8 in
    let rec go n =
      if not (Hashtbl.mem seen n) then begin
        Hashtbl.add seen n ();
        List.iter go (Option.value ~default:[] (Hashtbl.find_opt tbl n))
      end
    in
    List.iter go (Option.value ~default:[] (Hashtbl.find_opt tbl seed));
    seen
  in
  let names_in tbl =
    List.filter_map
      (fun ci ->
        let n = ci.Soc.ci_name in
        if Hashtbl.mem tbl n then Some n else None)
      soc.Soc.insts
  in
  List.map
    (fun ci ->
      let name = ci.Soc.ci_name in
      (name, names_in (reach preds name), names_in (reach succs name)))
    soc.Soc.insts

(* Whether a router fallback forced a system-level mux: the CCG was
   mutated, so nothing routed from here on is a function of the key. *)
let has_forced_smux routes =
  List.exists (fun (r : Access.route) -> r.Access.r_added_smux <> None) routes

(* The requested muxes that can touch [name]'s routing on [side], sorted
   so equal sets compare equal in memo keys (see the key notes below). *)
let relevant_smuxes ~side ~name ~cone smuxes =
  List.sort compare
    (List.filter
       (fun (sm : Schedule.smux_request) ->
         (match (side, sm.Schedule.sm_dir) with
         | `J, `In | `O, `Out -> true
         | `J, `Out | `O, `In -> false)
         && (sm.Schedule.sm_inst = name || List.mem sm.Schedule.sm_inst cone))
       smuxes)

(* ------------------------------------------------------------------ *)
(* Route memo with smux-request-aware keys                             *)
(* ------------------------------------------------------------------ *)

(* A memo key pins down everything a core's per-side routing can see:

   - the versions of the cores on that side's dependency set (their
     transparency edges are the only latency-bearing edges a route to /
     from the core can ride);

   - the subset of the requested system-level test muxes whose endpoint
     touches the core's cone on that side.  An [`In] request only adds a
     PI -> input edge, so it can shorten a justify route exactly when
     its target core is in (or is) the core's backward cone; dually an
     [`Out] request (output -> PO) matters only to observe routes of its
     forward cone.  Any other requested mux adds edges the route cannot
     reach, and [Search.dijkstra_timed]'s deterministic tie-breaking
     guarantees unreachable edges never change the returned path — so
     two evaluations agreeing on the key get bit-identical routes.

   Forced muxes (router fallbacks) mutate the CCG mid-evaluation; from
   the first one on, neither lookups nor stores are sound for the rest
   of that evaluation ([clean] below).  This memo is the only place a
   route is reused: [Schedule.build] routes every core afresh. *)
type memo = {
  mm_soc : Soc.t;
  mm_deps : (string * string list * string list) list;
  mm_tbl :
    ( string * [ `J | `O ] * (string * int) list * Schedule.smux_request list,
      Access.route list )
    Hashtbl.t;
  mm_mu : Mutex.t;
}

let memo soc =
  {
    mm_soc = soc;
    mm_deps = dependency_sets soc;
    mm_tbl = Hashtbl.create 64;
    mm_mu = Mutex.create ();
  }

let memo_find m key =
  Mutex.lock m.mm_mu;
  let r = Hashtbl.find_opt m.mm_tbl key in
  Mutex.unlock m.mm_mu;
  r

let memo_store m key routes =
  Mutex.lock m.mm_mu;
  if not (Hashtbl.mem m.mm_tbl key) then Hashtbl.add m.mm_tbl key routes;
  Mutex.unlock m.mm_mu

(* One design-point evaluation through the memo: same pieces as
   [Schedule.build] ([Ccg.build] + [install_smuxes] + per-core routing +
   [assemble]), with each core's justify/observe routes served from the
   memo when their key matches.  Returns the point and the number of
   route computations that missed (the full-build-equivalent work
   actually done — the optimizer's budget charge). *)
let eval_with_memo ?(opt = false) m ~choice ~smuxes () =
  Obs.incr c_evals;
  let soc = m.mm_soc in
  let ccg = Ccg.build soc ~choice in
  let requested_cost = Schedule.install_smuxes soc ccg smuxes in
  let clean = ref true in
  let misses = ref 0 in
  let routes_for ~side ~compute name cone =
    let key =
      ( name,
        side,
        List.map
          (fun d -> (d, Option.value ~default:1 (List.assoc_opt d choice)))
          cone,
        relevant_smuxes ~side ~name ~cone smuxes )
    in
    match (if !clean then memo_find m key else None) with
    | Some routes ->
        Obs.incr c_memo_hits;
        if opt then Obs.incr c_opt_memo_hits;
        routes
    | None ->
        incr misses;
        let routes = compute ccg name in
        if has_forced_smux routes then clean := false
        else if !clean then memo_store m key routes;
        routes
  in
  let tests =
    List.map
      (fun ci ->
        let name = ci.Soc.ci_name in
        let _, back, fwd = List.find (fun (n, _, _) -> n = name) m.mm_deps in
        let justify =
          routes_for ~side:`J ~compute:Schedule.justify_routes name back
        in
        let observe =
          routes_for ~side:`O ~compute:Schedule.observe_routes name fwd
        in
        Schedule.core_test_of_routes ci ~justify ~observe)
      soc.Soc.insts
  in
  let s =
    Schedule.assemble soc ~choice ~n_requested:(List.length smuxes)
      ~requested_cost ccg tests
  in
  ( {
      pt_choice = choice;
      pt_smuxes = smuxes;
      pt_schedule = s;
      pt_area = s.Schedule.s_area_overhead;
      pt_time = s.Schedule.s_total_time;
    },
    !misses )

let design_space soc =
  Obs.with_span ~cat:"core" "select.design_space" @@ fun () ->
  (* [ci_atpg] is a [Lazy.t], which is not safe to force concurrently:
     force every core's test set here, on the submitting domain, before
     any worker can race on it. *)
  List.iter (fun ci -> ignore (Soc.atpg_vectors ci)) soc.Soc.insts;
  let axes =
    List.map
      (fun ci ->
        ( ci.Soc.ci_name,
          List.map (fun v -> v.Version.v_index) ci.Soc.ci_versions ))
      soc.Soc.insts
  in
  let rec expand = function
    | [] -> [ [] ]
    | (name, ks) :: rest ->
        let tails = expand rest in
        List.concat_map (fun k -> List.map (fun t -> (name, k) :: t) tails) ks
  in
  let m = memo soc in
  let choices = expand axes in
  (* Two-phase sweep.  Phase 1 evaluates a greedy cover — the choices
     that together touch every distinct route-memo key — so the memo is
     warmed with no two domains racing to compute the same routes;
     phase 2 sweeps the rest, now almost entirely memo hits.  The memo
     invariant (same key → bit-identical routes) makes every point
     identical to the single-phase sweep, and the merge below restores
     enumeration order, so the result is byte-identical at any domain
     count. *)
  let keys_of choice =
    List.concat_map
      (fun (name, back, fwd) ->
        let cone_choice cone =
          List.map
            (fun d -> (d, Option.value ~default:1 (List.assoc_opt d choice)))
            cone
        in
        [ (name, `J, cone_choice back); (name, `O, cone_choice fwd) ])
      m.mm_deps
  in
  let covered = Hashtbl.create 64 in
  let tagged =
    List.map
      (fun choice ->
        let ks = keys_of choice in
        let fresh = List.exists (fun k -> not (Hashtbl.mem covered k)) ks in
        if fresh then List.iter (fun k -> Hashtbl.replace covered k ()) ks;
        (choice, fresh))
      choices
  in
  let eval cs =
    Pool.parallel_map_list ~chunk:1
      (fun choice -> fst (eval_with_memo m ~choice ~smuxes:[] ()))
      cs
  in
  let warm = eval (List.filter_map (fun (c, f) -> if f then Some c else None) tagged) in
  let rest = eval (List.filter_map (fun (c, f) -> if f then None else Some c) tagged) in
  let rec merge tagged warm rest =
    match (tagged, warm, rest) with
    | [], [], [] -> []
    | (_, true) :: tl, w :: ws, _ -> w :: merge tl ws rest
    | (_, false) :: tl, _, r :: rs -> r :: merge tl warm rs
    | _ -> assert false
  in
  merge tagged warm rest

(* Estimated test-time gain of stepping [inst] to its next version:
   usage count of each transparency pair times its latency drop
   (the paper's latency-number difference). *)
let delta_tat soc (point : point) inst_name =
  let ci = Soc.inst soc inst_name in
  let cur_k = Option.value ~default:1 (List.assoc_opt inst_name point.pt_choice) in
  let cur = Soc.version_of ci cur_k in
  let next =
    List.find_opt (fun v -> v.Version.v_index > cur.Version.v_index) ci.Soc.ci_versions
  in
  match next with
  | None -> None
  | Some next ->
      let usage = point.pt_schedule.Schedule.s_usage in
      let gain = ref 0 in
      List.iter
        (fun (p : Version.pair) ->
          let count =
            Option.value ~default:0
              (Hashtbl.find_opt usage (inst_name, p.Version.pr_input, p.Version.pr_output))
          in
          if count > 0 then begin
            let new_lat =
              match
                Version.latency_between next ~input:p.Version.pr_input
                  ~output:p.Version.pr_output
              with
              | Some l -> l
              | None -> p.Version.pr_latency
            in
            gain := !gain + (count * (p.Version.pr_latency - new_lat))
          end)
        cur.Version.v_pairs;
      Some (next, !gain, next.Version.v_overhead - cur.Version.v_overhead)

(* The port where a system-level test mux would help the slowest core
   most: its latest-justified input (or latest-observed output). *)
let critical_smux (point : point) =
  let slowest =
    List.fold_left
      (fun acc t ->
        match acc with
        | Some best when best.Schedule.ct_time >= t.Schedule.ct_time -> acc
        | _ -> Some t)
      None point.pt_schedule.Schedule.s_tests
  in
  match slowest with
  | None -> None
  | Some t ->
      let ccg = point.pt_schedule.Schedule.s_ccg in
      let worst routes =
        List.fold_left
          (fun acc (r : Access.route) ->
            match acc with
            | Some (_, best) when best >= r.Access.r_arrival -> acc
            | _ -> Some (r.Access.r_target, r.Access.r_arrival))
          None routes
      in
      let pick dir routes =
        match worst routes with
        | Some (target, arrival) when arrival > 0 -> (
            match Ccg.node ccg target with
            | Ccg.N_cin (i, p) | Ccg.N_cout (i, p) ->
                Some ({ Schedule.sm_inst = i; sm_port = p; sm_dir = dir }, arrival)
            | _ -> None)
        | _ -> None
      in
      let cand_in = pick `In t.Schedule.ct_justify in
      let cand_out = pick `Out t.Schedule.ct_observe in
      let best =
        match (cand_in, cand_out) with
        | Some (a, la), Some (b, lb) -> Some (if la >= lb then a else b)
        | Some (a, _), None -> Some a
        | None, Some (b, _) -> Some b
        | None, None -> None
      in
      (* Don't re-request an existing mux. *)
      match best with
      | Some m when not (List.mem m point.pt_smuxes) -> Some m
      | _ -> None

let smux_request_cost soc (m : Schedule.smux_request) =
  let w =
    (Socet_rtl.Rtl_core.find_port (Soc.inst soc m.Schedule.sm_inst).Soc.ci_core
       m.Schedule.sm_port)
      .Socet_rtl.Rtl_core.p_width
  in
  Ccg.smux_cost ~width:w

let bump choice inst k =
  (inst, k) :: List.remove_assoc inst choice

(* One optimizer step; [pick] chooses among (inst, next, dTAT, dA)
   candidates and [eval] evaluates the move (memoized or not).  Returns
   the improved point, or None when out of moves. *)
let step soc ~eval point ~pick =
  Obs.incr c_steps;
  let candidates =
    List.filter_map
      (fun ci ->
        match delta_tat soc point ci.Soc.ci_name with
        | Some (next, dtat, da) when dtat > 0 ->
            Some (ci.Soc.ci_name, next.Version.v_index, dtat, da)
        | _ -> None)
      soc.Soc.insts
  in
  let version_move = pick candidates in
  let mux_move () =
    match critical_smux point with
    | None -> None
    | Some m ->
        Some (eval ~choice:point.pt_choice ~smuxes:(m :: point.pt_smuxes))
  in
  match version_move with
  | Some (inst, k, _dtat, da) ->
      (* Paper: when the version step is dearer than a system-level test
         mux, place the mux instead. *)
      let mux_cost =
        match critical_smux point with
        | Some m -> Some (smux_request_cost soc m)
        | None -> None
      in
      if (match mux_cost with Some mc -> da > mc | None -> false) then mux_move ()
      else
        Some (eval ~choice:(bump point.pt_choice inst k) ~smuxes:point.pt_smuxes)
  | None -> mux_move ()

(* ------------------------------------------------------------------ *)
(* Bounded, memoized iterative improvement                             *)
(* ------------------------------------------------------------------ *)

(* Budget currency: one unit ~ one search-node expansion, the same unit
   [core.tsearch.nodes_expanded] counts (cf. [Tsearch.default_steps]).
   Re-routing one core side is one time-expanded Dijkstra over the CCG,
   which expands at most every CCG node once — so a memo miss is charged
   [route_unit] (the CCG node count) and a hit is free.  The charge uses
   this static bound rather than an [Obs] counter because counters are
   no-ops when observability is off, and budgets must bind always. *)
let route_unit soc =
  List.length soc.Soc.soc_pis
  + List.length soc.Soc.soc_pos
  + List.fold_left
      (fun acc ci ->
        acc + List.length (Socet_rtl.Rtl_core.ports ci.Soc.ci_core))
      0 soc.Soc.insts

(* The optimizer's move evaluator: memoized (shared [memo] across the
   whole trajectory) or the plain oracle path, both charging the given
   budget for the routing work actually performed.  Exhaustion is not
   checked here — evaluations run to completion so a half-charged point
   is never corrupt; the loop stops before the *next* step. *)
let optimizer_eval ?budget ~use_memo soc =
  let unit = route_unit soc in
  let charge sides =
    match budget with
    | None -> ()
    | Some b -> ignore (Budget.spend ~cost:(sides * unit) b)
  in
  if use_memo then begin
    let m = memo soc in
    fun ~choice ~smuxes ->
      let p, misses = eval_with_memo ~opt:true m ~choice ~smuxes () in
      charge misses;
      p
  end
  else
    fun ~choice ~smuxes ->
      let p = evaluate soc ~choice ~smuxes () in
      charge (2 * List.length soc.Soc.insts);
      p

let all_v1 soc = List.map (fun ci -> (ci.Soc.ci_name, 1)) soc.Soc.insts

(* Cycle detection over visited (choice, smuxes) states.  The move set
   is monotone (versions only step up, the mux set only grows), so a
   revisit means the walk is stuck replaying itself — stop rather than
   loop.  Order-insensitive keys: assoc lists are sorted. *)
let state_key (p : point) =
  (List.sort compare p.pt_choice, List.sort compare p.pt_smuxes)

(* Stop after this many consecutive steps without a new best time: the
   dTAT estimate can stall for a step or two (another core's access path
   is the bottleneck), but a long plateau means the estimate no longer
   tracks reality. *)
let plateau_window = 8

let best_time_point = function
  | [] -> invalid_arg "Select.best_time_point: empty trajectory"
  | p :: rest ->
      List.fold_left
        (fun best q -> if q.pt_time < best.pt_time then q else best)
        p rest

(* Shared driver: [stop point] checks the objective, [accept next]
   filters moves, [pick] scores version candidates.  The budget is
   spent cost-1 per step taken ([opt_steps] <= initial fuel) on top of
   the per-evaluation routing charges; the seed is always evaluated and
   returned, so even a 0-fuel budget degrades to the seed point rather
   than an error — callers detect exhaustion via [Budget.exhausted] and
   map it to the resilient exit-code-4 convention. *)
let optimize ?budget ~use_memo soc ~stop ~accept ~pick =
  let eval = optimizer_eval ?budget ~use_memo soc in
  let start = eval ~choice:(all_v1 soc) ~smuxes:[] in
  let visited = Hashtbl.create 32 in
  Hashtbl.replace visited (state_key start) ();
  let rec loop acc point ~best ~plateau guard =
    if
      stop point || guard = 0
      || plateau >= plateau_window
      || (match budget with Some b -> not (Budget.spend b) | None -> false)
    then List.rev (point :: acc)
    else begin
      Obs.incr c_opt_steps;
      match step soc ~eval point ~pick with
      | Some next
        when accept next && not (Hashtbl.mem visited (state_key next)) ->
          Hashtbl.replace visited (state_key next) ();
          let best, plateau =
            if next.pt_time < best then (next.pt_time, 0) else (best, plateau + 1)
          in
          loop (point :: acc) next ~best ~plateau (guard - 1)
      | _ -> List.rev (point :: acc)
    end
  in
  loop [] start ~best:start.pt_time ~plateau:0 64

let minimize_time ?budget ?(use_memo = true) soc ~max_area =
  Obs.with_span ~cat:"core" "select.minimize_time" @@ fun () ->
  optimize ?budget ~use_memo soc
    ~stop:(fun _ -> false)
    ~accept:(fun next -> next.pt_area <= max_area)
    ~pick:(fun candidates ->
      (* w1 = 1, w2 = 0: highest dTAT. *)
      List.fold_left
        (fun best (i, k, dtat, da) ->
          match best with
          | Some (_, _, bt, _) when bt >= dtat -> best
          | _ -> Some (i, k, dtat, da))
        None candidates)

let minimize_area ?budget ?(use_memo = true) soc ~max_time =
  Obs.with_span ~cat:"core" "select.minimize_area" @@ fun () ->
  optimize ?budget ~use_memo soc
    ~stop:(fun point -> point.pt_time <= max_time)
    ~accept:(fun _ -> true)
    ~pick:(fun candidates ->
      (* w1 = 0, w2 = 1: cheapest step that still helps. *)
      List.fold_left
        (fun best (i, k, dtat, da) ->
          match best with
          | Some (_, _, _, bda) when bda <= da -> best
          | _ -> Some (i, k, dtat, da))
        None candidates)
