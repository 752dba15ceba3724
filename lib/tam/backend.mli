(** The two chip-level test flows, as two plain functions.

    The paper's CCG/transparency flow ({!Socet_core.Resilient} over
    {!Socet_core.Schedule}) and the wrapper/TAM flow ({!Schedule} here)
    answer the same question — how long does testing the whole chip take
    and what chip-level DFT does it cost — so both return a {!plan}.
    [socet chip --backend ccg|tam], [socet tam], the server's chip
    requests, the fleet driver, [socet diff-test] and the bench call
    {!Ccg_backend.plan} and {!Tam_backend.plan} directly; each keeps its
    own obs counter and span under [tam.backend.*].  Neither raises:
    budget exhaustion degrades (CCG) or stops the improvement pass early
    (TAM), and bad input comes back as a structured error. *)

type core_row = {
  r_inst : string;
  r_mech : string;  (** access mechanism, e.g. ["transparency"] or
                        ["wrapper 3 lane(s)"] *)
  r_time : int;     (** per-core test time, cycles *)
  r_area : int;     (** per-core chip-level DFT addition, cells *)
}

type detail =
  | D_ccg of Socet_core.Schedule.t
  | D_tam of Schedule.t  (** the raw schedule, for replay-style checks *)

type plan = {
  p_rows : core_row list;
  p_total_time : int;
  p_area_overhead : int;  (** chip-level DFT (excludes the shared
                              core-level HSCAN investment) *)
  p_degraded : int;       (** CCG cores on the FSCAN-BSCAN fallback rung;
                              always 0 for TAM *)
  p_detail : detail;
}

module Ccg_backend : sig
  val plan :
    ?budget:Socet_util.Budget.t ->
    Socet_core.Soc.t ->
    (plan, Socet_util.Error.t) result
  (** The paper's flow: all cores at version 1, graceful degradation via
      {!Socet_core.Resilient.plan}. *)
end

module Tam_backend : sig
  val plan :
    ?budget:Socet_util.Budget.t ->
    ?width:int ->
    Socet_core.Soc.t ->
    (plan, Socet_util.Error.t) result
  (** The wrapper/TAM flow at [width] wires (default
      {!Schedule.default_width}).  The returned plan has already passed
      {!Replay.check}: an invalid packing surfaces as a structured
      [Internal] error, never as a wrong schedule, and a [width] below 1
      as an invalid-input error. *)
end

val render_detail : detail -> string
(** The plan's full schedule table: {!Socet_core.Schedule.render} or
    {!Schedule.render}. *)
