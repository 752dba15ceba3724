(** Design-space exploration and iterative-improvement version selection
    (paper Sec. 5.2, Fig. 10, Table 1).

    A design point is a choice of one version per core plus any
    system-level test muxes.  The optimizer replaces one core at a time by
    its next version, scoring each candidate with
    [C = w1 * dTAT + w2 * dA], where [dTAT] is estimated from the current
    test solution's transparency-edge usage counts times the latency drop
    (the paper's "latency number"), and [dA] is the version's area step.
    When a version step costs more than a system-level test mux, a mux on
    the most critical port of the slowest core is placed instead.  In the
    worst case the solution degenerates into a test-bus-like system. *)

type point = {
  pt_choice : (string * int) list;
  pt_smuxes : Schedule.smux_request list;
  pt_schedule : Schedule.t;
  pt_area : int;  (** chip-level area overhead (cells) *)
  pt_time : int;  (** global test application time (cycles) *)
}

val evaluate :
  Soc.t -> choice:(string * int) list -> ?smuxes:Schedule.smux_request list -> unit -> point
(** One full [Schedule.build] — the memo-free oracle every memoized path
    is tested against. *)

(** {2 Route memo}

    A core's justify (observe) routes depend only on (a) the versions of
    the cores in its backward (forward) dependency cone and (b) the
    requested system-level test muxes whose endpoint touches that cone —
    an [`In] mux only adds a PI->input edge (it can shorten a justify
    route only into its own core's cone), an [`Out] mux only an
    output->PO edge.  The memo keys on exactly that, so a cached route
    is reused only when no new mux could have shortened it; together
    with [Search.dijkstra_timed]'s deterministic tie-breaking, memoized
    evaluations are bit-identical to {!evaluate} (DESIGN.md §10 gives
    the argument; the test_select golden suite enforces it).  The memo
    lives in memory for one sweep or one optimizer trajectory; it is
    the only place a route is reused, and no result store keeps routes. *)

val delta_tat : Soc.t -> point -> string -> (Version.t * int * int) option
(** [(next_version, dTAT, dA)] for stepping the named core up one rung —
    [None] when it is already at the top.  Exposed for the ablation
    benches. *)

val design_space : Soc.t -> point list
(** Every combination of available core versions (no extra muxes), in
    lexicographic order — the raw material of Fig. 10.

    Evaluation fans out across the {!Socet_util.Pool} domains through one
    shared, mutex-guarded route memo, so a core's routing is reused
    across the many points that only differ elsewhere
    ([core.select.memo_hits] counts reuse).  Results are independent of
    the domain count and identical to evaluating each choice with
    {!evaluate}. *)

val best_time_point : point list -> point
(** Earliest minimum-TAT point of a trajectory (the best-so-far result
    even when the search was cut short).
    @raise Invalid_argument on an empty list. *)

val minimize_time :
  ?budget:Socet_util.Budget.t -> ?use_memo:bool -> Soc.t -> max_area:int -> point list
(** Objective (i): within the area budget, drive test time down.  Returns
    the improvement trajectory; the last point is the result (and
    {!best_time_point} the best seen).

    The loop is bounded three ways: [budget], denominated in search-node
    units comparable to [core.tsearch.nodes_expanded] (each step costs 1
    plus the CCG node count per re-routed core side; memo hits are
    free); cycle detection over visited (choice, smuxes) states; and a
    plateau window (8 consecutive steps without a new best time).
    Exhaustion degrades to the trajectory found so far — always at least
    the seed point, even under a 0-step budget — and is observable via
    [Budget.exhausted] (the CLI maps it to exit code 4).
    [core.select.opt_steps] counts steps taken and never exceeds the
    budget's fuel.

    [use_memo] (default true) routes evaluations through a trajectory-
    wide route memo ([core.select.opt_memo_hits]); [false] is the oracle
    path, one full [Schedule.build] per move — same points, more work. *)

val minimize_area :
  ?budget:Socet_util.Budget.t -> ?use_memo:bool -> Soc.t -> max_time:int -> point list
(** Objective (ii): cheapest point whose test time meets the bound.
    Returns the trajectory; the last point either meets the bound or no
    further move existed (or a bound above tripped).  Same bounding and
    memoization as {!minimize_time}. *)
