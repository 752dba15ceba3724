(** PODEM combinational ATPG (Goel 1981) on the full-scan test model.

    Decision variables are the circuit's inputs in the scan sense: primary
    inputs plus flip-flop (pseudo) inputs.  Observation points are primary
    outputs plus flip-flop D captures.  The search runs on the five-valued
    machine of {!Dcalc}. *)

open Socet_util
open Socet_netlist

type outcome =
  | Test of Bitvec.t
      (** A detecting vector in {!Fsim.vector} layout; unassigned positions
          are filled with 0. *)
  | Untestable
      (** Search space exhausted: the fault is redundant. *)
  | Aborted
      (** Backtrack limit hit. *)

val generate :
  ?backtrack_limit:int ->
  ?scoap:Scoap.t ->
  ?budget:Budget.t ->
  Netlist.t ->
  Fault.t ->
  outcome
(** [backtrack_limit] defaults to 1000.  With [scoap], backtrace prefers
    the easiest-to-control fanin and the D-frontier is explored in
    observability order.  With [budget], every decision/backtrack step
    spends one unit; exhaustion degrades the search to [Aborted].

    Implication is event-driven: a decision or backtrack re-evaluates
    only the fanout of the inputs it changed.  Each call counts its
    outcome in [atpg.podem.outcome_test], [outcome_untestable] or
    [outcome_aborted]; an aborted call also adds its decisions to
    [atpg.podem.decisions_in_aborted]. *)

type stats = {
  vectors : Bitvec.t list;
  detected : Fault.t list;
  redundant : Fault.t list;
      (** [Untestable] verdicts the final vectors do not detect;
          disjoint from [detected], as is [aborted]. *)
  aborted : Fault.t list;
  total_faults : int;
  coverage : float;    (** detected / total, percent *)
  efficiency : float;  (** (detected + redundant) / total, percent *)
}

val run :
  ?backtrack_limit:int ->
  ?random_patterns:int ->
  ?seed:int ->
  ?use_scoap:bool ->
  ?budget:Budget.t ->
  Netlist.t ->
  stats
(** Full test generation flow: a random-pattern phase (default 64 patterns,
    simulated with fault dropping), then PODEM on each remaining fault with
    each new vector fault-simulated against the remaining list, and finally
    reverse-order compaction ({!Compact.reverse_order}).

    The deterministic phase uses an {e adaptive} backtrack budget: the
    first pass runs with a small limit (32), aborted faults are re-queued
    at the end, and the limit is multiplied by 8 per pass until it reaches
    [backtrack_limit] — so easy faults (the vast majority, per the
    [atpg.podem.backtracks_per_fault] histogram) never pay for the hard
    tail, while the final aborted set matches a flat run at
    [backtrack_limit].  Escalations are counted in
    [atpg.podem.budget_escalations].

    With [budget], the whole phase shares one fuel/deadline allowance;
    when it exhausts, remaining faults are reported as aborted and the
    vectors found so far are kept (graceful degradation).

    A plain engine: every call runs the search, and nothing here reads
    or writes a result store.  Reusing a core's test set is the job of
    the per-core ATPG stage, [Socet_core.Soc.core_atpg]. *)
