(** Typed requests and responses carried inside {!Wire} frames.

    Requests mirror the CLI surface — what [socet explore]/[socet chip]
    print is exactly what the server streams back ({!Dispatch} is the
    single implementation both sides share, which is what makes the
    byte-identity contract of DESIGN.md §11 hold by construction).  Every
    request carries an optional relative deadline; [Explore] also carries
    the optimizer's [search_budget].  Both thread straight into
    [Socet_util.Budget] on the server.

    Payload encoding is JSON (via the repo's own [Socet_obs.Json]): the
    framing layer is binary for cheap, robust length-prefixed transport,
    while the payloads stay debuggable with [socket]-level tools. *)

type objective = Min_time | Min_area

type explore = {
  ex_system : string;
  ex_objective : objective;
  ex_max_area : int;
  ex_max_time : int;
  ex_search_budget : int option;
      (** optimizer fuel, in node-expansion units ([--search-budget]) *)
  ex_no_memo : bool;
}

type backend = Ccg | Tam
(** Which chip backend plans the request ([Socet_tam.Backend] names).
    Wire-compatible: the JSON field is emitted only for [Tam], so [Ccg]
    requests encode byte-identically to the pre-backend protocol and old
    peers keep interoperating. *)

type chip = { ch_system : string; ch_strict : bool; ch_backend : backend }
type atpg = { at_core : string }

type body =
  | Ping  (** liveness + version/feature echo ([socet version] format) *)
  | Stats  (** the server's observability report, as [Obs.stats_json] *)
  | Health
      (** readiness probe: per-worker state/uptime/jobs/crashes, queue
          depth, circuit-breaker state ({!health} JSON).  Answered by the
          server directly — never queued — so it stays responsive while
          the queue is full.  Back-compatible: a new op inside protocol
          version 1; pre-fleet peers reject it as an unknown op without
          affecting any other request. *)
  | Explore of explore
  | Chip of chip
  | Atpg of atpg

type t = {
  rq_deadline_ms : int option;
      (** wall-clock allowance, anchored when the server admits the job:
          expiring in the queue or mid-engine yields a structured
          [Exhausted] error (exit code 4 at the client) *)
  rq_cache : string option;
      (** result-cache directory to activate around this request's
          execution ([--cache DIR]); absent on the wire when [None], so
          pre-cache request frames are byte-identical *)
  rq_body : body;
}

type status = { st_code : int; st_stderr : string }
(** Final frame of a successful exchange: the process exit code the
    direct CLI would have returned, plus its stderr bytes (stdout arrived
    as chunk frames). *)

val make : ?deadline_ms:int -> ?cache:string -> body -> t

val summary : t -> string
(** One-line label for queue spans and the access log, e.g.
    ["explore system1"]. *)

val package_version : string
(** Single source of truth for the [socet] version string (the CLI's
    [--version] and [socet version] both use it). *)

val version_lines : unit -> string
(** The [socet version] output; the server's [Ping] response carries the
    same bytes, so a client can diagnose a protocol or feature mismatch. *)

val encode : t -> string
val decode : string -> (t, string) result

val of_args : ?deadline_ms:int -> ?cache:string -> string list -> (t, string) result
(** Parse the [socet submit] request syntax, e.g.
    [["explore"; "system1"; "--max-area"; "600"]].  Accepts [--k v] and
    [--k=v]. *)

val encode_status : status -> string
val decode_status : string -> (status, string) result

val encode_error : Socet_util.Error.t -> string
val decode_error : string -> (Socet_util.Error.t, string) result
(** Structured errors cross the wire losslessly: engine, kind (including
    [Overloaded] with its [retry_after_ms] context), context pairs and
    message survive the round trip, so [Error.exit_code] at the client
    equals what the direct CLI would have exited with. *)

(** {2 Health report} *)

type worker_state = W_idle | W_busy | W_respawning | W_stopped

type worker_health = {
  wh_id : int;  (** stable worker slot index (survives respawns) *)
  wh_pid : int;  (** current process id; 0 when no process is live *)
  wh_state : worker_state;
  wh_uptime_ms : int;  (** of the current incarnation *)
  wh_jobs : int;  (** jobs completed across all incarnations *)
  wh_crashes : int;  (** deaths/hang-kills across all incarnations *)
}

type health = {
  hl_uptime_ms : int;  (** server uptime *)
  hl_queue_depth : int;  (** admission bound *)
  hl_pending : int;  (** jobs admitted and not yet dispatched *)
  hl_workers : worker_health list;  (** empty = in-process execution *)
  hl_breaker_open : bool;
      (** the respawn circuit breaker tripped: the server is draining and
          will exit 5 — a readiness probe should report not-ready *)
  hl_retries : int;  (** jobs re-run after a worker loss, lifetime total *)
}

val encode_health : health -> string
val decode_health : string -> (health, string) result

val render_health : health -> string
(** The [socet health] human-readable rendering of the report. *)
