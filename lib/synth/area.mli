(** Area accounting helpers (cell units, as in the paper's tables). *)

open Socet_netlist

val of_netlist : Netlist.t -> int
(** Total cell area. *)

val ff_count : Netlist.t -> int

val overhead_percent : base:int -> extra:int -> float
(** [100 * extra / base]. *)
