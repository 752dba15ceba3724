(** RTL core descriptions: ports + registers + transfers, with validation.

    Cores are built with the [add_*] functions and frozen with {!validate};
    every downstream pass (RCG extraction, HSCAN insertion, elaboration)
    assumes a validated core. *)

open Rtl_types

type port = { p_name : string; p_dir : [ `In | `Out ]; p_width : int }
type reg = { r_name : string; r_width : int }

type t

val create : string -> t
val name : t -> string

val add_input : t -> string -> int -> unit
val add_output : t -> string -> int -> unit
val add_reg : t -> string -> int -> unit

val add_transfer : t -> ?kind:path_kind -> src:endpoint -> dst:endpoint -> unit -> unit
(** [kind] defaults to [Mux 1] (a path through an existing one-control-bit
    multiplexer input — the common case). *)

(* Endpoint construction helpers. *)
val reg : t -> string -> endpoint
(** Whole register.  @raise Not_found on unknown names. *)

val port : t -> string -> endpoint
(** Whole port. *)

val reg_bits : t -> string -> int -> int -> endpoint
val port_bits : t -> string -> int -> int -> endpoint

val validate : t -> unit
(** Checks: unique names; endpoint ranges within declared widths; transfer
    sources are input ports or registers; destinations are output ports or
    registers; widths compatible (equal, except through width-changing
    functional units).  @raise Invalid_argument with a diagnostic. *)

val ports : t -> port list
val inputs : t -> port list
val outputs : t -> port list
val regs : t -> reg list
val transfers : t -> transfer list

val find_port : t -> string -> port

val reg_bit_count : t -> int
(** Total flip-flop bits over all registers. *)

val input_bit_count : t -> int
val output_bit_count : t -> int

val pp : Format.formatter -> t -> unit
