(** Chip-level wrapper/TAM test scheduling: rectangle bin packing.

    Each core becomes a rectangle (width = TAM wires consumed, height =
    test time at that width, from {!Alloc}); the schedule places every
    rectangle on a contiguous band of TAM wires at a start cycle such
    that no two rectangles overlap.  Packing is best-fit decreasing
    (tallest rectangle first, earliest feasible start, lowest wire on
    ties) followed by an iterative-improvement pass fuelled by a
    {!Socet_util.Budget}: while fuel lasts, the core finishing last is
    re-allocated to each of its alternative widths and the whole set is
    re-packed, keeping the first strictly better makespan.

    The result mirrors the shape of [Socet_core.Schedule.t] — per-core
    entries with times plus chip totals — so the same replay-style
    invariant checking applies ({!Replay}). *)

type placement = {
  pl_inst : string;
  pl_width : int;        (** TAM wires consumed *)
  pl_wire : int;         (** first TAM wire (band is [pl_wire, pl_wire+pl_width)) *)
  pl_start : int;        (** start cycle *)
  pl_time : int;         (** test time in cycles (rectangle height) *)
  pl_vectors : int;      (** core ATPG vector count *)
  pl_wrapper : Wrapper.t;
}

type t = {
  t_soc : string;
  t_tam_width : int;
  t_placements : placement list;  (** one per logic core, SOC order *)
  t_total_time : int;             (** makespan: max over placements of
                                      [pl_start + pl_time] (0 if none) *)
  t_wrapper_cost : int;           (** sum of the wrappers' areas *)
  t_tam_cost : int;               (** TAM bus wiring cost *)
  t_controller_cost : int;
  t_area_overhead : int;          (** chip-level total of the three above *)
  t_improve_steps : int;          (** re-packs attempted by the pass *)
  t_improve_gain : int;           (** cycles shaved off the BFD makespan *)
}

val default_width : int
(** TAM width when the caller does not choose one (16 wires). *)

val tam_wire_area : int
(** Chip-level cost per TAM wire, in cells. *)

val build : ?budget:Socet_util.Budget.t -> ?width:int -> Socet_core.Soc.t -> t
(** Wrap every logic core (memories stay on their BIST, as everywhere
    else in the repo), allocate widths, pack, improve.  Deterministic:
    no randomness, all ties broken on names/indices, so the result is
    identical at any domain count and any clock.  [budget] fuels only
    the improvement pass, in rectangle-placement units; with none, the
    pass runs to its plateau.  @raise Invalid_argument if [width < 1]. *)

val render : t -> string
(** The [socet tam SYSTEM] table: one row per core (lanes, wire band,
    start, time, wrapper area) plus the totals line. *)
