(** Chip-level test scheduling: per-core test application time and the
    overall SOCET area/time figures for one design point (a choice of core
    versions plus any forced system-level test muxes).

    Each embedded core is tested in turn.  Per HSCAN vector, the vector is
    justified to every core input through the surrounding cores'
    transparency paths (the per-vector period is the makespan of those
    routes, serialized where they share core-internal resources — the
    paper's 9-cycles-per-vector DISPLAY arithmetic); test responses stream
    out through the observation paths while the next vector is justified,
    so observation only adds a tail after the last vector, together with
    the core's remaining scan-out cycles. *)

type core_test = {
  ct_inst : string;
  ct_vectors : int;      (** HSCAN vector count of the core's test set *)
  ct_period : int;       (** cycles consumed per vector *)
  ct_tail : int;         (** trailing cycles after the last vector *)
  ct_time : int;         (** [ct_vectors * ct_period + ct_tail] *)
  ct_justify : Access.route list;
  ct_observe : Access.route list;
}

type t = {
  s_ccg : Ccg.t;
  s_tests : core_test list;
  s_total_time : int;
  s_transparency_cost : int;  (** sum of chosen version overheads *)
  s_smux_cost : int;          (** system-level test muxes (requested + forced) *)
  s_controller_cost : int;
  s_area_overhead : int;      (** chip-level total of the three above *)
  s_usage : (string * int * int, int) Hashtbl.t;
      (** transparency-pair usage counts across the whole test solution *)
}

type smux_request = { sm_inst : string; sm_port : string; sm_dir : [ `In | `Out ] }
(** An explicitly requested system-level test mux (optimizer move). *)

val build :
  ?budget:Socet_util.Budget.t ->
  Soc.t ->
  choice:(string * int) list ->
  ?smuxes:smux_request list ->
  unit ->
  t
(** With [budget], the per-core loop checks exhaustion before each core:
    once the fuel or deadline is gone, remaining cores are emitted with
    {e no} routes and zero vectors (their ATPG is skipped too) — a stub
    that [Resilient.plan] recognizes and degrades to the FSCAN-BSCAN
    fallback.  Without a budget the behaviour is unchanged.

    [build] reuses nothing: every core is routed afresh against a fresh
    CCG, whatever result store is active.  It is the plain oracle the
    memoized {!Select} paths are tested against. *)

(** {2 Memoization seam}

    [build] is [Ccg.build] + requested-mux insertion + one core test
    per core ({!justify_routes}, {!observe_routes},
    {!core_test_of_routes}) + [assemble].  [Select]'s route memo
    drives the pieces directly so per-core tests can be memoized across
    design points: a core's test only depends on the versions of the
    cores its access routes can traverse, so the same [core_test] value
    recurs across many full-choice combinations.

    Caveat for callers: routing may add {e forced} system-level mux
    edges to [ccg] as a side effect (visible as [r_added_smux] on the
    returned routes).  A result whose routes contain a forced mux — or one
    computed {e after} such a mutation within the same [ccg] — is specific
    to that build and must not be reused against a fresh CCG. *)

val install_smuxes : Soc.t -> Ccg.t -> smux_request list -> int
(** Insert the requested system-level test muxes as CCG edges (an [`In]
    request bridges the first chip PI to the port, [`Out] the port to the
    first chip PO) and return their total area cost — the
    [requested_cost] to pass to {!assemble}.  [build] and the Select
    memo path share this so requested muxes mean exactly the same edges
    on both. *)

val justify_routes : Ccg.t -> string -> Access.route list
(** Justification routes for the named core's inputs: slowest first
    (empty-calendar probe), then routed against one shared calendar.
    Depends only on the transparency of cores {e upstream} of the
    target. *)

val observe_routes : Ccg.t -> string -> Access.route list
(** Observation routes for the named core's outputs; depends only on
    cores {e downstream} of the target. *)

val core_test_of_routes :
  Soc.core_inst -> justify:Access.route list -> observe:Access.route list -> core_test
(** Period/tail/time arithmetic over already-computed routes. *)

val assemble :
  Soc.t ->
  choice:(string * int) list ->
  ?n_requested:int ->
  ?requested_cost:int ->
  Ccg.t ->
  core_test list ->
  t
(** Totals per-core tests into a schedule (costs, usage, controller);
    increments the [core.schedule.builds] counter and, via
    [Access.record_committed_fallbacks], counts the forced-mux fallbacks
    that actually enter the schedule.  [core.schedule.full_builds]
    counts only whole {!build} calls, so [builds - full_builds] is the
    number of schedules assembled from (partly) memoized routes. *)

val render : t -> string
(** The [socet schedule] table: one row per core (vectors, cycles per
    vector, tail, test time) plus the sequential-total line — shared by
    [socet schedule] and [socet diff-test], the mirror of
    {!Socet_tam.Schedule.render}. *)

(** {2 Overlapped scheduling (extension beyond the paper)}

    The paper tests the cores one after another.  Core tests whose access
    paths touch disjoint sets of cores can in fact run concurrently (each
    core has its own gated clock).  [parallel_makespan] greedily packs the
    core tests — longest first, each starting as soon as every conflicting
    test has finished — and returns the resulting makespan with the start
    time of each test.  Tests conflict when they involve a common core,
    whether as the core under test or as a transparency conduit. *)

val involved_cores : core_test -> string list
(** The core under test plus every core whose transparency edges its
    routes ride through. *)

val parallel_makespan : t -> int * (string * int) list
