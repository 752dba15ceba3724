(** A word-organized RAM model with injectable memory fault classes — the
    substrate under the March-test engine that justifies the paper's
    "memory cores use BIST" exclusion. *)

type fault =
  | Cell_saf of { addr : int; bit : int; stuck : bool }
      (** a cell bit permanently 0/1 *)
  | Transition of { addr : int; bit : int; rising : bool }
      (** the cell cannot make the 0->1 (rising) or 1->0 transition *)
  | Coupling of { aggressor : int; victim : int; bit : int; value : bool }
      (** writing [value] into the aggressor cell's bit forces the victim
          cell's same bit to [value] (idempotent coupling fault) *)
  | Decoder_alias of { a : int; b : int }
      (** an address-decoder fault: accesses to [a] land on cell [b], so
          cell [a] is unreachable and the two addresses collide *)

type t

val create : ?fault:fault -> words:int -> width:int -> unit -> t

val words : t -> int
val width : t -> int

val read : t -> int -> int
val write : t -> int -> int -> unit
(** Both honour the injected fault's semantics. *)

val all_faults : words:int -> width:int -> fault list
(** A representative fault population: every cell stuck-at, every
    transition fault, neighbour coupling on every bit, and adjacent
    decoder swaps.  Size is linear in [words * width]. *)
