(* One measured phase of a workload, run in a process of its own so that
   nothing one phase computes (a heap, a lazily built table) carries into
   the next.  A phase prints its raw samples as one JSON line; [Main]
   turns them into metrics.

   Every phase pins the engines' domain pool to one domain: on a small
   machine two domains make the same job swing by a third from run to
   run (README.md). *)

module Proto = Socet_serve.Proto
module Dispatch = Socet_serve.Dispatch
module Server = Socet_serve.Server
module Client = Socet_serve.Client
module Obs = Socet_obs.Obs
module Json = Socet_obs.Json
module Cache = Socet_cache.Cache
module Soc = Socet_core.Soc
module Select = Socet_core.Select
module Schedule = Socet_core.Schedule
module Backend = Socet_tam.Backend
module Fleet = Socet_tam.Fleet
module Podem = Socet_atpg.Podem
module Fsim = Socet_atpg.Fsim
module Fault = Socet_atpg.Fault
module Structhash = Socet_netlist.Structhash
module Validate = Socet_netlist.Validate
module Pool = Socet_util.Pool
module Rng = Socet_util.Rng
module Err = Socet_util.Error

type config = {
  workload : string;
  seed : int;
  seconds : float;
  staged : bool;  (** the traced run: stage-by-stage calls under spans *)
  pass : int;  (** paper_mix: which pass of the run (picks its order) *)
  dir : string;  (** scratch directory of this phase *)
}

(* ------------------------------------------------------------------ *)
(* Process measurements                                                *)
(* ------------------------------------------------------------------ *)

let now () = Unix.gettimeofday ()

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of another process, from /proc/PID/stat (fields 14 and
   15, in USER_HZ = 100 ticks per second). *)
let proc_cpu pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.0

(* Peak resident set (VmHWM) of "self" or a pid, in MiB. *)
let peak_rss_mb proc =
  let s = read_file (Printf.sprintf "/proc/%s/status" proc) in
  let line = List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' s) in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left (fun a f -> a + dir_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

(* ------------------------------------------------------------------ *)
(* What a phase reports                                                *)
(* ------------------------------------------------------------------ *)

type acc = {
  mutable setup_s : float list;
  mutable lat_ms : float list;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable tat : float list;
  mutable area : float list;
  mutable cov : float list;
  mutable wall_s : float;
  mutable cpu_s : float;
  mutable rss_mb : float;
  mutable layers : (string * float) list;  (** staged only: per-layer metrics *)
  mutable layer_table : (string * (float * int)) list;
  mutable traced_jobs_per_s : float;
  mutable traced_wall_ms : float;
  mutable other_ms : float;
}

let acc =
  {
    setup_s = [];
    lat_ms = [];
    attempted = 0;
    failed = 0;
    errors = [];
    tat = [];
    area = [];
    cov = [];
    wall_s = 0.0;
    cpu_s = 0.0;
    rss_mb = 0.0;
    layers = [];
    layer_table = [];
    traced_jobs_per_s = 0.0;
    traced_wall_ms = 0.0;
    other_ms = 0.0;
  }

(* A job that found problems counts once in [failed]; the first few
   messages are kept for stderr. *)
let settle problems =
  acc.attempted <- acc.attempted + 1;
  match problems with
  | [] -> ()
  | p :: _ ->
      acc.failed <- acc.failed + 1;
      if List.length acc.errors < 5 then acc.errors <- p :: acc.errors

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ok_exn = function
  | Ok x -> x
  | Error e -> failwith (Err.to_string e)

let output_of = function
  | Ok o -> { Mix.stdout = o.Dispatch.o_stdout; stderr = o.Dispatch.o_stderr; code = o.Dispatch.o_code }
  | Error e -> { Mix.stdout = ""; stderr = Err.to_string e; code = Err.exit_code e }

let output_of_reply = function
  | Ok r -> { Mix.stdout = r.Client.r_stdout; stderr = r.Client.r_stderr; code = r.Client.r_code }
  | Error e -> { Mix.stdout = ""; stderr = Err.to_string e; code = Err.exit_code e }

(* An output checked against the digest recorded on the seed commit. *)
let check_expected expected label (o : Mix.output) =
  let e = List.assoc label expected in
  if o.Mix.code <> 0 then [ Printf.sprintf "%s: exit %d: %s" label o.Mix.code o.Mix.stderr ]
  else if Mix.digest o <> e.Mix.e_digest then [ label ^ ": output differs from perfbench/expected.txt" ]
  else []

let add_quality (q : Mix.quality) =
  Option.iter (fun t -> acc.tat <- float_of_int t :: acc.tat) q.Mix.tat;
  Option.iter (fun a -> acc.area <- float_of_int a :: acc.area) q.Mix.area;
  Option.iter (fun c -> acc.cov <- float_of_string c :: acc.cov) q.Mix.cov

(* The measured window: wall and CPU time of [f], plus [extra_cpu] for a
   process outside this one (the serve worker). *)
let window ?(extra_cpu = fun () -> 0.0) f =
  let c0 = cpu_self () +. extra_cpu () and t0 = now () in
  f ();
  acc.wall_s <- now () -. t0;
  acc.cpu_s <- cpu_self () +. extra_cpu () -. c0

(* ------------------------------------------------------------------ *)
(* Staged calls: one job split over each layer's entry points          *)
(* ------------------------------------------------------------------ *)

type atpg_agg = {
  mutable aborted : int;
  mutable detected : int;
  mutable faults : int;
  mutable vectors : int;
}

let atpg_agg = { aborted = 0; detected = 0; faults = 0; vectors = 0 }
let distinct_netlists : (string, unit) Hashtbl.t = Hashtbl.create 16
let routes_saved_ms = ref []
let roundtrip_ms = ref []
let dispatch_ms = ref []

let podem_runs () =
  List.fold_left
    (fun a (n, (calls, _)) -> if n = "atpg.podem.run" then calls else a)
    0 (Obs.snapshot_timers ())

(* Force one netlist's ATPG (PODEM, or a store hit) as its own stage. *)
let podem nl run =
  let runs0 = podem_runs () in
  let stats = Trace.stage "atpg.podem" run in
  if not !Trace.replica then begin
    if podem_runs () > runs0 then
      Hashtbl.replace distinct_netlists (Trace.check (fun () -> Structhash.netlist nl)) ();
    atpg_agg.aborted <- atpg_agg.aborted + List.length stats.Podem.aborted;
    atpg_agg.detected <- atpg_agg.detected + List.length stats.Podem.detected;
    atpg_agg.faults <- atpg_agg.faults + stats.Podem.total_faults;
    atpg_agg.vectors <- atpg_agg.vectors + List.length stats.Podem.vectors
  end;
  stats

(* Fault simulation grading the final vectors against the collapsed
   fault list: must detect exactly what PODEM reported detected. *)
let grade nl stats =
  let graded =
    Trace.stage ~probe:true "atpg.fsim_grade" (fun () ->
        Fsim.run_comb nl ~vectors:stats.Podem.vectors ~faults:(Fault.collapse nl))
  in
  if List.length graded <> List.length stats.Podem.detected then
    [ Printf.sprintf "fsim grading detects %d faults, PODEM reported %d" (List.length graded)
        (List.length stats.Podem.detected) ]
  else []

(* The version ladder is built inside Soc.instantiate; the probe
   rebuilds it on a fresh RCG to time Version.generate alone. *)
let version_probe core =
  let rcg = Socet_rtl.Rcg.of_core core in
  ignore (Socet_scan.Hscan.insert rcg);
  ignore (Trace.stage ~probe:true "core.version" (fun () -> Socet_core.Version.generate rcg))

(* Structural hash, version probe and forced ATPG of every core: after
   this no later stage runs PODEM. *)
let soc_front ~grading soc =
  ignore (Trace.stage "netlist.structhash" (fun () -> Soc.content_hash soc));
  List.iter (fun ci -> version_probe ci.Soc.ci_core) soc.Soc.insts;
  List.concat_map
    (fun ci ->
      let stats = podem ci.Soc.ci_netlist (fun () -> Lazy.force ci.Soc.ci_atpg) in
      if grading then grade ci.Soc.ci_netlist stats else [])
    soc.Soc.insts

let validated soc =
  List.iter (fun ci -> Validate.check_exn ci.Soc.ci_netlist) soc.Soc.insts;
  soc

let replay_issues soc (p : Backend.plan) =
  match p.Backend.p_detail with
  | Backend.D_ccg sched when p.Backend.p_degraded = 0 ->
      List.length (Trace.check (fun () -> Socet_core.Replay.check sched))
  | Backend.D_ccg _ -> 0
  | Backend.D_tam sched -> List.length (Trace.check (fun () -> Socet_tam.Replay.check soc sched))

let plan_problems what soc = function
  | Error e -> (None, [ what ^ ": " ^ Err.to_string e ])
  | Ok p ->
      let n = replay_issues soc p in
      (Some p, if n > 0 then [ Printf.sprintf "%s: %d replay issue(s)" what n ] else [])

(* Schedule.build on an ATPG-forced SOC without the store, minus the
   same build with the warm store: the work the routes1 namespace
   saves. *)
let routes_probe soc =
  let choice = List.map (fun ci -> (ci.Soc.ci_name, 1)) soc.Soc.insts in
  Trace.stage ~probe:true "cache.routes_probe" (fun () ->
      let (), cold = timed (fun () -> Cache.with_store None (fun () -> ignore (Schedule.build soc ~choice ()))) in
      let (), warm = timed (fun () -> ignore (Schedule.build soc ~choice ())) in
      routes_saved_ms := ((cold -. warm) *. 1000.0) :: !routes_saved_ms)

(* One mix request split into its pipeline stages.  [store] is the
   result-store directory (serve_warm), opened per request as the worker
   does.  Returns the problems found, including plan figures that differ
   from expected.txt. *)
let staged_request ~expected ~store ~grading (r : Mix.request) =
  let in_store f =
    match store with
    | None -> f ()
    | Some dir ->
        let st = ok_exn (Trace.stage "cache.open" (fun () -> Cache.open_dir dir)) in
        Cache.with_store (Some st) f
  in
  let want = (List.assoc r.Mix.label expected).Mix.e_quality in
  let system name = Trace.stage "cores.soc_build" (fun () -> ok_exn (Dispatch.system_of_name name)) in
  let got, problems =
    in_store (fun () ->
        match r.Mix.req.Proto.rq_body with
        | Proto.Chip c ->
            let soc = system c.Proto.ch_system in
            let front = soc_front ~grading soc in
            let p, problems =
              match c.Proto.ch_backend with
              | Proto.Ccg ->
                  let res = Trace.stage "core.schedule" (fun () -> Backend.Ccg_backend.plan soc) in
                  if store <> None then routes_probe soc;
                  plan_problems "ccg plan" soc res
              | Proto.Tam -> plan_problems "tam plan" soc (Trace.stage "tam.plan" (fun () -> Backend.Tam_backend.plan soc))
            in
            let q =
              match p with
              | Some p -> { Mix.tat = Some p.Backend.p_total_time; area = Some p.Backend.p_area_overhead; cov = None }
              | None -> { Mix.tat = None; area = None; cov = None }
            in
            (q, front @ problems)
        | Proto.Explore e ->
            let soc = system e.Proto.ex_system in
            let front = soc_front ~grading soc in
            let use_memo = not e.Proto.ex_no_memo in
            let traj =
              Trace.stage "core.select" (fun () ->
                  match e.Proto.ex_objective with
                  | Proto.Min_time -> Select.minimize_time ~use_memo soc ~max_area:e.Proto.ex_max_area
                  | Proto.Min_area -> Select.minimize_area ~use_memo soc ~max_time:e.Proto.ex_max_time)
            in
            if store <> None then routes_probe soc;
            let best = Select.best_time_point traj in
            let issues = List.length (Trace.check (fun () -> Socet_core.Replay.check best.Select.pt_schedule)) in
            ( { Mix.tat = Some best.Select.pt_time; area = Some best.Select.pt_area; cov = None },
              front @ if issues > 0 then [ Printf.sprintf "explore: %d replay issue(s)" issues ] else [] )
        | Proto.Atpg a ->
            let nl =
              Trace.stage "cores.soc_build" (fun () ->
                  let nl = Socet_synth.Elaborate.core_to_netlist (ok_exn (Dispatch.core_of_name a.Proto.at_core)) in
                  Validate.check_exn nl;
                  nl)
            in
            ignore (Trace.stage "netlist.structhash" (fun () -> Structhash.netlist nl));
            let stats = podem nl (fun () -> Podem.run nl) in
            let problems = if grading then grade nl stats else [] in
            ({ Mix.tat = None; area = None; cov = Some (Printf.sprintf "%.1f" stats.Podem.coverage) }, problems)
        | Proto.Ping | Proto.Stats | Proto.Health -> failwith "perfbench: not a mix request")
  in
  problems @ if got <> want then [ r.Mix.label ^ ": plan quality differs from perfbench/expected.txt" ] else []

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* paper_mix set-up: resolve the mix's inputs the way each request does
   first — build and validate systems 1-3, elaborate and validate the six
   cores — and load the expected outputs. *)
let paper_setup () =
  let expected = Mix.load_expected () in
  List.iter
    (fun r ->
      match r.Mix.req.Proto.rq_body with
      | Proto.Chip { Proto.ch_system = s; _ } | Proto.Explore { Proto.ex_system = s; _ } ->
          ignore (ok_exn (Dispatch.system_of_name s))
      | Proto.Atpg a ->
          Validate.check_exn
            (Socet_synth.Elaborate.core_to_netlist (ok_exn (Dispatch.core_of_name a.Proto.at_core)))
      | Proto.Ping | Proto.Stats | Proto.Health -> ())
    Mix.requests;
  expected

let repeat_setup k f =
  let rs = List.init k (fun _ -> timed f) in
  acc.setup_s <- List.map snd rs;
  fst (List.nth rs (k - 1))

let setup_repeats = 3

(* One pass of the mix, in this process, with no result store. *)
let paper_mix cfg =
  let expected = repeat_setup setup_repeats paper_setup in
  let order = Mix.order ~seed:cfg.seed ~pass:cfg.pass Mix.requests in
  if not cfg.staged then
    window (fun () ->
        List.iter
          (fun (r : Mix.request) ->
            let res, dt = timed (fun () -> Dispatch.run r.Mix.req) in
            acc.lat_ms <- (dt *. 1000.0) :: acc.lat_ms;
            let o = output_of res in
            add_quality (Mix.quality_of o.Mix.stdout);
            settle (check_expected expected r.Mix.label o))
          order)
  else
    List.iteri
      (fun j r ->
        settle (Trace.job j (fun () -> staged_request ~expected ~store:None ~grading:true r)))
      order

(* fleet_cold plans a fixed fleet of [fleet_size] random heterogeneous
   SOCs, SOC i being the one Fleet.run builds for fleet seed i + 1 at
   index 0, i.e. from Rng (seed * 1_000_003).  The run's seed orders the
   fleet.  A fleet drawn afresh per seed would make the run's work a
   random quantity: one SOC's cost varies with a coefficient of variation
   near 0.75, and across five seeds of ~85 SOCs each jobs_per_s spread
   by 20% (README.md). *)
let fleet_size = 50
let fleet_seed i = i + 1
let fleet_soc i = Socet_cores.Gen.random_soc ~hetero:true (Rng.create (fleet_seed i * 1_000_003))
let fleet_setup_socs = 16

(* fleet_cold set-up: a fresh, empty result store, and the first SOCs of
   the fleet built and validated. *)
let fleet_setup cfg k =
  let store = ok_exn (Cache.open_dir (Printf.sprintf "%s/store%d" cfg.dir k)) in
  for i = 0 to fleet_setup_socs - 1 do
    ignore (validated (fleet_soc i))
  done;
  store

let fleet_cold cfg =
  let k = ref 0 in
  let store =
    repeat_setup setup_repeats (fun () ->
        incr k;
        fleet_setup cfg !k)
  in
  Cache.with_store (Some store) @@ fun () ->
  let order = Mix.order ~seed:cfg.seed ~pass:cfg.pass (List.init fleet_size Fun.id) in
  if not cfg.staged then begin
    let entries = ref [] in
    window (fun () ->
        List.iter (fun i ->
          let es, dt = timed (fun () -> Fleet.run ~seed:(fleet_seed i) ~count:1 ()) in
          acc.lat_ms <- (dt *. 1000.0) :: acc.lat_ms;
          let problems =
            List.concat_map
              (fun e ->
                let outcome what = function
                  | Ok o ->
                      acc.tat <- float_of_int o.Fleet.o_time :: acc.tat;
                      acc.area <- float_of_int o.Fleet.o_area :: acc.area;
                      []
                  | Error m -> [ Printf.sprintf "%s %s: %s" e.Fleet.e_soc what m ]
                in
                let ccg = outcome "ccg" e.Fleet.e_ccg and tam = outcome "tam" e.Fleet.e_tam in
                ccg @ tam
                @ if e.Fleet.e_issues > 0 then [ Printf.sprintf "%s: %d replay issue(s)" e.Fleet.e_soc e.Fleet.e_issues ] else [])
              es
          in
          entries := (i, es) :: !entries;
          settle problems)
        order);
    (* Coverage of every core planned, read back from the store after the
       window (the SOC rebuilt from the same seed must be the one the
       fleet planned). *)
    List.iter
      (fun (i, es) ->
        let soc = fleet_soc i in
        List.iter
          (fun e ->
            if e.Fleet.e_soc <> soc.Soc.soc_name || e.Fleet.e_cores <> List.length soc.Soc.insts then
              settle [ "fleet entry does not match the SOC rebuilt from its seed" ])
          es;
        List.iter (fun ci -> acc.cov <- (Lazy.force ci.Soc.ci_atpg).Podem.coverage :: acc.cov) soc.Soc.insts)
      !entries
  end
  else
    List.iteri (fun j i ->
      let problems =
        Trace.job j (fun () ->
            let soc = Trace.stage "cores.soc_build" (fun () -> validated (fleet_soc i)) in
            let front = soc_front ~grading:true soc in
            let plan what stage f = snd (plan_problems what soc (Trace.stage stage f)) in
            let ccg = plan "ccg plan" "core.schedule" (fun () -> Backend.Ccg_backend.plan soc) in
            let tam = plan "tam plan" "tam.plan" (fun () -> Backend.Tam_backend.plan soc) in
            front @ ccg @ tam)
      in
      settle problems)
      order

let worker_pid client =
  let reply = ok_exn (Client.request client (Proto.make Proto.Health)) in
  match Proto.decode_health (String.trim reply.Client.r_stdout) with
  | Ok { Proto.hl_workers = [ w ]; _ } -> w.Proto.wh_pid
  | Ok _ -> failwith "perfbench: expected exactly one serve worker"
  | Error m -> failwith ("perfbench: bad health reply: " ^ m)

(* serve_warm: a fresh store filled by the mix computed cold in this
   process (the reference outputs), then a fresh server with one worker
   on that store, and one closed-loop client. *)
let serve_warm cfg =
  let dir = cfg.dir ^ "/store" and socket = cfg.dir ^ "/s.sock" in
  let with_cache (r : Mix.request) = { r.Mix.req with Proto.rq_cache = Some dir } in
  let (expected, refs, srv, client, setup_problems), setup_s =
    timed (fun () ->
        let expected = Mix.load_expected () in
        let refs = List.map (fun r -> (r.Mix.label, output_of (Dispatch.run (with_cache r)))) Mix.requests in
        let srv = Server.start ~workers:1 ~cache:dir ~socket () in
        let client = ok_exn (Client.connect socket) in
        let warm =
          List.concat_map
            (fun r ->
              let o = output_of_reply (Client.request client r.Mix.req) in
              if o <> List.assoc r.Mix.label refs then [ r.Mix.label ^ ": warm-up reply differs" ] else [])
            Mix.requests
        in
        let cold = List.concat_map (fun (label, o) -> check_expected expected label o) refs in
        (expected, refs, srv, client, cold @ warm))
  in
  acc.setup_s <- [ setup_s ];
  if setup_problems <> [] then settle setup_problems;
  List.iter (fun (_, o) -> add_quality (Mix.quality_of o.Mix.stdout)) refs;
  let wpid = worker_pid client in
  let next = Mix.orderer ~seed:cfg.seed Mix.requests in
  let queue = ref [] in
  let next_request () =
    if !queue = [] then queue := next ();
    let r = List.hd !queue in
    queue := List.tl !queue;
    r
  in
  let served (r : Mix.request) o =
    if o <> List.assoc r.Mix.label refs then [ r.Mix.label ^ ": served reply differs from the cold output" ] else []
  in
  (* Engine counts and the queue-wait histogram cover the window only. *)
  if cfg.staged then Obs.reset ();
  let deadline = now () +. cfg.seconds in
  let bytes0 = dir_bytes dir in
  let jobs = ref 0 in
  window ~extra_cpu:(fun () -> proc_cpu wpid) (fun () ->
      while now () < deadline do
        let r = next_request () in
        if not cfg.staged then begin
          let reply, dt = timed (fun () -> Client.request client r.Mix.req) in
          acc.lat_ms <- (dt *. 1000.0) :: acc.lat_ms;
          settle (served r (output_of_reply reply))
        end
        else begin
          let problems =
            Trace.job !jobs (fun () ->
                let reply, dt = timed (fun () -> Trace.stage "serve.roundtrip" (fun () -> Client.request client r.Mix.req)) in
                roundtrip_ms := (dt *. 1000.0) :: !roundtrip_ms;
                let local, dt = timed (fun () -> Trace.stage ~probe:true "serve.dispatch" (fun () -> Dispatch.run (with_cache r))) in
                dispatch_ms := (dt *. 1000.0) :: !dispatch_ms;
                Trace.replica := true;
                let staged =
                  Fun.protect
                    ~finally:(fun () -> Trace.replica := false)
                    (fun () -> staged_request ~expected ~store:(Some dir) ~grading:false r)
                in
                served r (output_of_reply reply) @ served r (output_of local) @ staged)
          in
          settle problems
        end;
        incr jobs
      done);
  acc.rss_mb <- peak_rss_mb "self" +. peak_rss_mb (string_of_int wpid);
  Client.close client;
  Server.shutdown srv;
  let code = Server.wait srv in
  if code <> 0 then settle [ Printf.sprintf "server drained with exit code %d" code ];
  if cfg.staged then begin
    let jobs = float_of_int (max 1 !jobs) in
    let mean l = if l = [] then 0.0 else List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
    let queue_wait =
      match List.assoc_opt "serve.queue.wait_ms" (Obs.snapshot_histograms ()) with
      | Some h when h.Socet_obs.Histogram.s_count > 0 -> h.Socet_obs.Histogram.s_mean
      | _ -> 0.0
    in
    acc.layers <-
      [
        ("serve.roundtrip_ms", mean !roundtrip_ms);
        ("serve.dispatch_ms", mean !dispatch_ms);
        ("serve.overhead_ms", mean !roundtrip_ms -. mean !dispatch_ms);
        ("serve.queue_wait_ms", queue_wait);
        ("cache.bytes_written", float_of_int (max 0 (dir_bytes dir - bytes0)) /. jobs);
      ]
  end

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of a staged phase                                 *)
(* ------------------------------------------------------------------ *)

let layer_metrics ~jobs ~other_us ~fleet_store_bytes =
  let jobs_f = float_of_int (max 1 jobs) in
  let table = Trace.layer_table () in
  let ms name = match List.assoc_opt name table with Some (us, _) -> us /. 1000.0 /. jobs_f | None -> 0.0 in
  let c name = float_of_int (Trace.count name) in
  let per name = c name /. jobs_f in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let distinct = float_of_int (Hashtbl.length distinct_netlists) in
  let calls = c "atpg.podem.run.calls" in
  let mean l = if l = [] then 0.0 else List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let hits = c "cache.hits" and misses = c "cache.misses" in
  acc.layer_table <- table;
  [
    ("cores.soc_build_ms", ms "cores.soc_build");
    ("netlist.structhash_ms", ms "netlist.structhash");
    ("synth.elaborate_cells", per "synth.elaborate.cells");
    ("atpg.podem_ms", ms "atpg.podem");
    ("atpg.podem_calls", calls /. jobs_f);
    ("atpg.distinct_netlists", distinct /. jobs_f);
    ("atpg.calls_per_netlist", ratio calls distinct);
    ("atpg.faults_targeted", per "atpg.podem.faults_targeted");
    ("atpg.decisions", per "atpg.podem.decisions");
    ("atpg.backtracks", per "atpg.podem.backtracks");
    ("atpg.backtracks_per_decision", ratio (c "atpg.podem.backtracks") (c "atpg.podem.decisions"));
    ("atpg.budget_escalations", per "atpg.podem.budget_escalations");
    ("atpg.aborted_faults", float_of_int atpg_agg.aborted /. jobs_f);
    ("atpg.detect_frac", ratio (float_of_int atpg_agg.detected) (float_of_int atpg_agg.faults));
    ("atpg.vectors", float_of_int atpg_agg.vectors /. jobs_f);
    ("atpg.fsim_grade_ms", ms "atpg.fsim_grade");
    ("atpg.fsim_fault_evals", per "atpg.fsim.fault_evals");
    ( "atpg.fsim_cone_hit_frac",
      ratio (c "atpg.fsim.cone_cache_hits") (c "atpg.fsim.cone_cache_hits" +. c "atpg.fsim.cone_cache_misses") );
    ("core.version_ms", ms "core.version");
    ("core.schedule_ms", ms "core.schedule");
    ("core.select_ms", ms "core.select");
    ("core.tsearch_solves", per "core.tsearch.solves");
    ("core.tsearch_nodes", per "core.tsearch.nodes_expanded");
    ("core.routes_committed", per "core.access.routes_committed");
    ("core.select_steps", per "core.select.opt_steps");
    ( "core.memo_hit_frac",
      ratio (c "core.select.memo_hits")
        (c "core.select.memo_hits" +. c "core.access.justify.calls" +. c "core.access.observe.calls") );
    ("tam.plan_ms", ms "tam.plan");
    ("tam.packs", per "tam.schedule.packs");
    ("tam.improve_accept_frac", ratio (c "tam.schedule.improve_accepts") (c "tam.schedule.improve_steps"));
    ("tam.replay_issues", per "tam.fleet.replay_issues");
    ("cache.open_ms", ms "cache.open");
    ("cache.hit_frac", ratio hits (hits +. misses));
    ("cache.hits", hits /. jobs_f);
    ("cache.misses", misses /. jobs_f);
    ("cache.stores", per "cache.stores");
    ("cache.evictions", per "cache.evictions");
    ("cache.bytes_written", fleet_store_bytes /. jobs_f);
    ("cache.routes_saved_ms", mean !routes_saved_ms);
    ("serve.roundtrip_ms", 0.0);
    ("serve.dispatch_ms", 0.0);
    ("serve.overhead_ms", 0.0);
    ("serve.queue_wait_ms", 0.0);
    ("bench.other_ms", other_us /. 1000.0 /. jobs_f);
  ]

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

let to_json () =
  let nums l = Json.Arr (List.rev_map (fun x -> Json.Num x) l) in
  Json.Obj
    [
      ("setup_s", nums acc.setup_s);
      ("lat_ms", nums acc.lat_ms);
      ("attempted", Json.Num (float_of_int acc.attempted));
      ("failed", Json.Num (float_of_int acc.failed));
      ("errors", Json.Arr (List.rev_map (fun e -> Json.Str e) acc.errors));
      ("tat", nums acc.tat);
      ("area", nums acc.area);
      ("cov", nums acc.cov);
      ("wall_s", Json.Num acc.wall_s);
      ("cpu_s", Json.Num acc.cpu_s);
      ("rss_mb", Json.Num acc.rss_mb);
      ("traced_jobs_per_s", Json.Num acc.traced_jobs_per_s);
      ("traced_wall_ms", Json.Num acc.traced_wall_ms);
      ("other_ms", Json.Num acc.other_ms);
      ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) acc.layers));
      ( "layer_table",
        Json.Obj
          (List.map (fun (k, (us, n)) -> (k, Json.Arr [ Json.Num (us /. 1000.0); Json.Num (float_of_int n) ])) acc.layer_table) );
    ]

let run cfg ~trace_file =
  Pool.set_size 1;
  Unix.putenv "SOCET_DOMAINS" "1";
  if cfg.staged then Obs.configure ();
  (match cfg.workload with
  | "paper_mix" -> paper_mix cfg
  | "fleet_cold" -> fleet_cold cfg
  | "serve_warm" -> serve_warm cfg
  | w -> failwith ("perfbench: unknown workload " ^ w));
  if acc.rss_mb = 0.0 then acc.rss_mb <- peak_rss_mb "self";
  if cfg.staged then begin
    (* The traced window runs from the first job span's start to the last
       one's end. *)
    let roots = List.filter (fun s -> s.Trace.parent < 0) !Trace.spans in
    let t0 = List.fold_left (fun a s -> Float.min a s.Trace.t0) infinity roots
    and t1 = List.fold_left (fun a s -> Float.max a s.Trace.t1) neg_infinity roots in
    let jobs = List.length (List.filter (fun s -> s.Trace.cat = "job") roots) in
    let other_us = Trace.other_us ~wall_t0:t0 ~wall_t1:t1 in
    let fleet_store_bytes =
      if cfg.workload = "fleet_cold" then
        float_of_int (dir_bytes (Printf.sprintf "%s/store%d" cfg.dir setup_repeats))
      else 0.0
    in
    let own = acc.layers in
    acc.layers <-
      List.map
        (fun (k, v) -> (k, Option.value ~default:v (List.assoc_opt k own)))
        (layer_metrics ~jobs ~other_us ~fleet_store_bytes);
    acc.traced_wall_ms <- (t1 -. t0) /. 1000.0;
    acc.other_ms <- other_us /. 1000.0;
    acc.traced_jobs_per_s <- float_of_int jobs /. ((t1 -. t0 -. Trace.not_job_us ()) /. 1e6);
    Out_channel.with_open_bin trace_file (fun oc ->
        output_string oc (Json.to_string (Trace.chrome_json ())))
  end;
  print_endline (Json.to_string (to_json ()))
