(** The five-valued D-calculus that {!Podem} searches over, on the flat
    form ({!Socet_netlist.Flat}).

    A composite value is a pair of ternary values: the good machine's and
    the faulty machine's.  D is (1, 0), D-bar is (0, 1), and a pair with
    an X on either side carries no error.  The two planes are plain
    arrays indexed by net, so the search's hot loop reads and writes
    them directly. *)

open Socet_netlist

type tv = T0 | T1 | TX

val tv_not : tv -> tv
val tv_of_bool : bool -> tv

type machine = { g : tv array; f : tv array }
(** Good and faulty value per net. *)

val create : int -> machine
(** [n] nets, all X. *)

val eval_tv : Flat.t -> tv array -> int -> tv
(** Ternary value of gate [g] over the plane [v].  Sources (PIs and
    flip-flops) return the value already in [v]. *)

val is_d : machine -> int -> bool
(** The net carries D or D-bar. *)

val observable_d : Flat.t -> Flat.cone -> machine -> bool
(** A D reaches a PO or a flip-flop capture.  Only the site's cone can
    carry one, so only the cone's POs and captures are read. *)

val d_frontier : Flat.t -> Flat.cone -> machine -> int list
(** Combinational gates with an X output (on either plane) and a D on
    some input, in global topological order: cone gates keep that order,
    so this is the list a scan of the whole netlist would give. *)

type xpath
(** Scratch for {!x_path_exists}: one visit mark per net and a search
    queue, reused across calls by an epoch counter.  Allocate it once per
    fault, not per call. *)

val xpath_scratch : Flat.t -> xpath

val x_path_exists : Flat.t -> xpath -> machine -> int list -> bool
(** [x_path_exists fl xp m frontier]: some gate of the D-frontier reaches
    an observation point ([Flat.is_obs]) through combinational gates
    whose output is X on either plane.  When it fails, no further
    assignment can observe the error, so the search may backtrack. *)
