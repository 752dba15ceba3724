(* The traced run's own spans, recorded around the benchmark's calls into
   each layer (the program's internal spans are not used), plus engine
   counter deltas taken at the same boundaries.  Spans stay in memory and
   are written at the end as Chrome trace-event JSON. *)

module Obs = Socet_obs.Obs
module Json = Socet_obs.Json

type span = {
  id : int;
  name : string;
  cat : string;
      (** "layer": the job's own work; "extra": layer work the untraced
          job does not do (probes, and serve_warm's in-bench replays);
          "job" and "check": the benchmark's own glue and checks *)
  job : int;
  parent : int;  (** -1 for a root span *)
  t0 : float;  (** microseconds *)
  t1 : float;
}

let now_us () = Unix.gettimeofday () *. 1e6
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let job_id = ref (-1)

let with_span ~cat name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let t0 = now_us () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = now_us () in
      stack := List.tl !stack;
      spans := { id; name; cat; job = !job_id; parent; t0; t1 } :: !spans)
    f

(* Engine counters, plus the call counts of the engine spans that have
   no counter: PODEM runs (a result served from the store never enters
   [podem.run]) and route-set searches. *)
let timed_calls = [ "atpg.podem.run"; "core.access.justify"; "core.access.observe" ]

let snapshot () =
  let timers =
    List.filter_map
      (fun (n, (calls, _)) -> if List.mem n timed_calls then Some (n ^ ".calls", calls) else None)
      (Obs.snapshot_timers ())
  in
  timers @ Obs.snapshot_counters ()

let counts : (string, int) Hashtbl.t = Hashtbl.create 64

let add_deltas before after =
  List.iter
    (fun (n, v) ->
      let v0 = Option.value ~default:0 (List.assoc_opt n before) in
      if v <> v0 then Hashtbl.replace counts n (v - v0 + Option.value ~default:0 (Hashtbl.find_opt counts n)))
    after

(* Set around serve_warm's staged split of a served request: its layer
   calls re-do work the worker already did, so their spans are "extra"
   and their counter deltas are not kept — serve_warm takes its engine
   counts from the in-bench Dispatch.run replay alone. *)
let replica = ref false

(* A call on one layer's public entry point; [probe] marks work the
   benchmark adds to measure a layer. *)
let stage ?(probe = false) name f =
  if !replica then with_span ~cat:"extra" name f
  else begin
    let before = snapshot () in
    let r = with_span ~cat:(if probe then "extra" else "layer") name f in
    add_deltas before (snapshot ());
    r
  end

let count name = Option.value ~default:0 (Hashtbl.find_opt counts name)

let job j f =
  job_id := j;
  with_span ~cat:"job" "bench.job" f

(* Self time of every span: its duration minus the part its direct
   children cover (children never overlap: the benchmark is one
   thread). *)
let self_times () =
  let child_us = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_us s.parent
          (s.t1 -. s.t0 +. Option.value ~default:0.0 (Hashtbl.find_opt child_us s.parent)))
    !spans;
  List.map (fun s -> (s, s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child_us s.id))) !spans

(* Per span name (layer and extra spans): total self microseconds and
   call count.  Job and check spans are the benchmark's own time. *)
let layer_table () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      if s.cat = "layer" || s.cat = "extra" then
        let us, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl s.name) in
        Hashtbl.replace tbl s.name (us +. self, n + 1))
    (self_times ());
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Bench time no layer span covers: self time of job and check spans,
   plus wall time outside every root span — computed from the spans, not
   as the remainder, so the sum check below means something. *)
let other_us ~wall_t0 ~wall_t1 =
  let selfs = self_times () in
  let inside = List.fold_left (fun a (s, self) -> if s.cat = "job" || s.cat = "check" then a +. self else a) 0.0 selfs in
  let roots = List.fold_left (fun a s -> if s.parent < 0 then a +. (s.t1 -. s.t0) else a) 0.0 !spans in
  inside +. (wall_t1 -. wall_t0 -. roots)

(* Time the untraced job does not spend: extra layer work and checks. *)
let not_job_us () =
  List.fold_left
    (fun a (s, self) -> if s.cat = "extra" || s.cat = "check" then a +. self else a)
    0.0 (self_times ())

let check f = with_span ~cat:"check" "bench.check" f

let chrome_json () =
  let ev s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str s.cat);
        ("ph", Json.Str "X");
        ("ts", Json.Num s.t0);
        ("dur", Json.Num (s.t1 -. s.t0));
        ("pid", Json.Num 1.0);
        ("tid", Json.Num 1.0);
        ( "args",
          Json.Obj
            [ ("id", Json.Num (float_of_int s.id)); ("parent", Json.Num (float_of_int s.parent)); ("job", Json.Num (float_of_int s.job)) ] );
      ]
  in
  Json.Obj [ ("traceEvents", Json.Arr (List.rev_map ev !spans)); ("displayTimeUnit", Json.Str "ms") ]
