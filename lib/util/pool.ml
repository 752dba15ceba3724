(* A fixed pool of worker domains fed one job at a time.  A job is a
   closure over chunk indices plus an atomic cursor; every participating
   domain (workers and the submitter) repeatedly claims the next chunk
   with fetch-and-add until the cursor passes the end — chunked work
   stealing with no per-chunk allocation or locking.

   Determinism: results are written into caller-owned slots indexed by the
   input position, so the merge order is the submission order regardless
   of which domain ran which chunk. *)

(* ------------------------------------------------------------------ *)
(* Sizing                                                              *)
(* ------------------------------------------------------------------ *)

let env_size () =
  match Sys.getenv_opt "SOCET_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

let requested = ref None

let size () =
  match !requested with
  | Some n -> n
  | None -> (
      match env_size () with
      | Some n -> n
      | None -> max 1 (Domain.recommended_domain_count ()))

(* ------------------------------------------------------------------ *)
(* Jobs and the pool                                                   *)
(* ------------------------------------------------------------------ *)

type job = {
  j_run : int -> unit;
  j_chunks : int;
  j_next : int Atomic.t; (* work-stealing cursor *)
  j_completed : int Atomic.t;
  j_exn : exn option Atomic.t; (* first failure wins *)
}

type pool = {
  mu : Mutex.t;
  cv : Condition.t; (* workers: a new job (or shutdown) is posted *)
  done_cv : Condition.t; (* submitter: all chunks completed *)
  mutable job : job option;
  mutable gen : int; (* bumped per job so sleeping workers notice *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let current : pool option ref = ref None

(* Serializes submitters; only one job is in flight at a time. *)
let submit_mu = Mutex.create ()

(* True while this domain is executing pool work (worker domains always;
   the submitter while it participates).  Nested parallel calls then run
   sequentially instead of deadlocking on [submit_mu]. *)
let in_pool : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let note_exn j e = ignore (Atomic.compare_and_set j.j_exn None (Some e))

let help (j : job) =
  let rec claim () =
    let i = Atomic.fetch_and_add j.j_next 1 in
    if i < j.j_chunks then begin
      (try j.j_run i with e -> note_exn j e);
      ignore (Atomic.fetch_and_add j.j_completed 1);
      claim ()
    end
  in
  claim ()

let signal_if_done pool j =
  if Atomic.get j.j_completed >= j.j_chunks then begin
    Mutex.lock pool.mu;
    Condition.broadcast pool.done_cv;
    Mutex.unlock pool.mu
  end

let worker pool start_gen () =
  Domain.DLS.set in_pool true;
  let rec loop last_gen =
    Mutex.lock pool.mu;
    while (not pool.stop) && pool.gen = last_gen do
      Condition.wait pool.cv pool.mu
    done;
    if pool.stop then Mutex.unlock pool.mu
    else begin
      let gen = pool.gen and job = pool.job in
      Mutex.unlock pool.mu;
      (match job with
      | Some j ->
          help j;
          signal_if_done pool j
      | None -> ());
      loop gen
    end
  in
  loop start_gen

let teardown p =
  Mutex.lock p.mu;
  p.stop <- true;
  Condition.broadcast p.cv;
  Mutex.unlock p.mu;
  List.iter Domain.join p.workers

let shutdown () =
  match !current with
  | None -> ()
  | Some p ->
      current := None;
      teardown p

let at_exit_registered = ref false

let ensure_pool () =
  let want = size () - 1 in
  match !current with
  | Some p when List.length p.workers = want -> p
  | stale ->
      Option.iter teardown stale;
      if not !at_exit_registered then begin
        at_exit_registered := true;
        at_exit shutdown
      end;
      let p =
        {
          mu = Mutex.create ();
          cv = Condition.create ();
          done_cv = Condition.create ();
          job = None;
          gen = 0;
          stop = false;
          workers = [];
        }
      in
      p.workers <-
        List.init want (fun _ -> Domain.spawn (worker p p.gen));
      current := Some p;
      p

let set_size n =
  requested := Some (max 1 n);
  (* A live pool of the wrong size is respawned lazily by [ensure_pool];
     tear it down eagerly so idle domains don't linger. *)
  match !current with
  | Some p when List.length p.workers <> size () - 1 -> shutdown ()
  | _ -> ()

(* Run [run 0 .. run (chunks-1)], in parallel when worthwhile. *)
let run_chunks ~chunks run =
  if chunks <= 1 || size () = 1 || Domain.DLS.get in_pool then
    for i = 0 to chunks - 1 do
      run i
    done
  else begin
    Mutex.lock submit_mu;
    let finally () = Mutex.unlock submit_mu in
    Fun.protect ~finally @@ fun () ->
    let pool = ensure_pool () in
    let j =
      {
        j_run = run;
        j_chunks = chunks;
        j_next = Atomic.make 0;
        j_completed = Atomic.make 0;
        j_exn = Atomic.make None;
      }
    in
    Mutex.lock pool.mu;
    pool.job <- Some j;
    pool.gen <- pool.gen + 1;
    Condition.broadcast pool.cv;
    Mutex.unlock pool.mu;
    Domain.DLS.set in_pool true;
    help j;
    Domain.DLS.set in_pool false;
    Mutex.lock pool.mu;
    while Atomic.get j.j_completed < j.j_chunks do
      Condition.wait pool.done_cv pool.mu
    done;
    pool.job <- None;
    Mutex.unlock pool.mu;
    match Atomic.get j.j_exn with Some e -> raise e | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)
(* ------------------------------------------------------------------ *)

(* Minimum work units a chunk should carry before fan-out pays for the
   cursor traffic and wake-ups.  With [cost] (estimated units per item,
   e.g. gates per fault cone) the caller turns a sea of tiny items into
   coarse shards: chunk = max(items for 4 chunks/domain, items to reach
   [grain] units).  Without [cost] the old 4-chunks-per-domain split is
   kept, so existing callers are unchanged. *)
let grain = 2048.0

let chunk_size ?chunk ?cost n =
  match chunk with
  | Some c -> max 1 c
  | None ->
      let by_balance = max 1 (n / (4 * size ())) in
      let by_grain =
        match cost with
        | None -> 1
        | Some c -> int_of_float (ceil (grain /. Float.max 1.0 c))
      in
      max by_balance by_grain

let parallel_iter_ranges ?chunk ?cost n f =
  if n > 0 then begin
    let c = chunk_size ?chunk ?cost n in
    let chunks = (n + c - 1) / c in
    run_chunks ~chunks (fun k -> f (k * c) (min n ((k + 1) * c)))
  end

let parallel_map ?chunk ?cost f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let c = chunk_size ?chunk ?cost n in
    let chunks = (n + c - 1) / c in
    let out = Array.make n None in
    run_chunks ~chunks (fun k ->
        let lo = k * c in
        let hi = min n (lo + c) - 1 in
        for i = lo to hi do
          out.(i) <- Some (f xs.(i))
        done);
    Array.map (function Some v -> v | None -> assert false) out
  end

let parallel_map_list ?chunk ?cost f xs =
  Array.to_list (parallel_map ?chunk ?cost f (Array.of_list xs))

let parallel_reduce ?chunk ?cost ~map ~merge ~init xs =
  Array.fold_left merge init (parallel_map ?chunk ?cost map xs)
