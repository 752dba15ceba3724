(** The D-algorithm (Roth 1966) — deterministic ATPG that, unlike PODEM,
    makes decisions on internal lines: the fault effect is driven toward
    an observation point through D-frontier choices while a J-frontier of
    pending line justifications is discharged through the gates' singular
    covers.  Both engines work on the same full-scan combinational test
    model and the same five-valued machine ({!Dcalc}), so their outcomes
    are directly comparable (the test suite cross-checks them fault by
    fault). *)

open Socet_util
open Socet_netlist

type outcome =
  | Test of Bitvec.t  (** detecting vector in {!Fsim.vector} layout *)
  | Untestable
      (** no test exists {e under single-path sensitization}: this
          implementation drives the fault effect through one D-frontier
          gate at a time, so faults requiring multiple simultaneously
          sensitized paths are reported untestable even though PODEM may
          find a test — the classic completeness gap of the original
          D-algorithm formulation.  [Test] results are always sound (the
          suite re-simulates every one). *)
  | Aborted

val generate :
  ?decision_limit:int -> ?budget:Budget.t -> Netlist.t -> Fault.t -> outcome
(** [decision_limit] (default 20000) bounds the total decisions tried
    before giving up with [Aborted].  With [budget], every decision also
    spends one unit and exhaustion aborts the search. *)

type stats = {
  detected : int;
  redundant : int;
  aborted : int;
  total : int;
  coverage : float;
  efficiency : float;
}

val run :
  ?decision_limit:int -> ?sample:int -> ?budget:Budget.t -> Netlist.t -> stats
(** Plain per-fault run (no random phase, no compaction) — meant for
    comparing search behaviour against {!Podem}.  [sample] (default 1)
    processes every [sample]-th collapsed fault, for quick sweeps of large
    netlists.  With [budget], faults past the point of exhaustion count as
    aborted. *)
