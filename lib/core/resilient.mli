(** Graceful degradation ladders for the SOCET flow.

    The search engines underneath the flow are all incomplete: PODEM and
    the D-algorithm abort on hard faults, transparency-path search gives
    up when its budget runs out, and the chip-level router can fail to
    justify or observe a port at all.  This module turns each of those
    partial failures into a {e degraded but valid} answer instead of an
    error:

    {v
      per fault                       per core
      ---------                       --------
      PODEM (adaptive limit)          transparency schedule complete?
        | Aborted                       | no (missing routes)
        v                               v
      D-algorithm (escalated limit)   FSCAN-BSCAN baseline for that
        | Aborted                     core only: full scan + boundary
        v                             ring, tested through the ring
      random-pattern top-off          (area up, time up, coverage kept)
        | undetected
        v
      fault stays aborted (reported)
    v}

    Every rung firing is counted in the [core.resilient.*] metrics so a
    degraded run is visible in [--stats].

    Loading this module also installs {!Socet_obs.Clock.now_us} as the
    wall-clock source for {!Socet_util.Budget} deadlines — any program
    linking [socet.core] gets working [--deadline] budgets for free. *)

open Socet_netlist
open Socet_atpg

(** {2 Per-fault ATPG ladder} *)

type atpg_rung =
  | R_podem  (** first-line PODEM found the answer *)
  | R_dalg   (** D-algorithm rescue after a PODEM abort *)
  | R_random (** random-pattern top-off after both engines aborted *)

type atpg_result = { a_outcome : Podem.outcome; a_rung : atpg_rung }

val generate_fault :
  ?backtrack_limit:int ->
  ?scoap:Scoap.t ->
  ?budget:Socet_util.Budget.t ->
  ?seed:int ->
  ?topoff_patterns:int ->
  Netlist.t ->
  Fault.t ->
  atpg_result
(** Run one fault down the ladder.  [Untestable] from PODEM is final (the
    search space was exhausted, not the budget).  The D-algorithm retry
    runs with an escalated decision limit (8x the backtrack limit, at
    least 20k); the random top-off simulates [topoff_patterns] (default
    128) seeded patterns against the single fault.  A fault that survives
    all three rungs comes back [Aborted] — degraded, never an exception.
    Rung firings are counted in [core.resilient.dalg_rescues] and
    [core.resilient.random_topoffs]. *)

(** {2 Per-core scheduling ladder} *)

type rung =
  | Transparency
      (** the paper's flow: HSCAN vectors ride transparency paths *)
  | Fallback_fscan_bscan
      (** this core's access routing failed; it is tested through full
          scan plus a boundary-scan ring instead *)

type core_plan = {
  p_inst : string;
  p_rung : rung;
  p_time : int;  (** test application time under the chosen rung *)
  p_area : int;  (** {e additional} overhead a fallback rung buys (full
                     scan + boundary ring); 0 for transparency cores *)
}

type plan = {
  p_schedule : Schedule.t;  (** the underlying (possibly partial) schedule *)
  p_cores : core_plan list;
  p_total_time : int;
  p_area_overhead : int;
      (** schedule overhead plus all fallback additions *)
  p_fallbacks : int;
}

val plan :
  ?budget:Socet_util.Budget.t ->
  ?smuxes:Schedule.smux_request list ->
  Soc.t ->
  choice:(string * int) list ->
  unit ->
  (plan, Socet_util.Error.t) result
(** Build the chip-level test schedule with per-core degradation: a core
    whose justification or observation routing came back incomplete (the
    transparency scheduler failed for it — budget, chaos, or topology)
    drops to the FSCAN-BSCAN baseline {e for that core only}, costed with
    {!Socet_scan.Fscan.overhead} + {!Socet_scan.Bscan.ring_overhead} and
    timed with {!Socet_scan.Bscan.test_time}.  Each drop increments
    [core.resilient.fallbacks].

    [Error] carries a structured {!Socet_util.Error.t}: [Exhausted] when
    [budget] ran out before a usable schedule existed, or the underlying
    engine error (validation failures etc.) wrapped by
    {!Socet_util.Error.guard}. *)
