(** Logic simulation of gate-level netlists.

    Two engines:
    - a scalar two-valued engine for functional checks and sequential test
      application;
    - a word-parallel engine evaluating up to {!word_width} patterns at once
      (one pattern per bit), the workhorse of the fault simulator. *)

val word_width : int
(** Number of patterns evaluated in parallel by the word engine
    ([Sys.int_size - 1]). *)

type state = Socet_util.Bitvec.t
(** Flip-flop contents, in [Netlist.dffs] order. *)

val initial_state : Netlist.t -> state
(** All-zero flip-flop state. *)

val eval :
  Netlist.t ->
  pi:Socet_util.Bitvec.t ->
  state:state ->
  Socet_util.Bitvec.t * state
(** [eval t ~pi ~state] evaluates one clock cycle: returns the primary
    output values *before* the clock edge and the next state.  [pi] is in
    [Netlist.pis] order, outputs in [Netlist.pos] order. *)

type wvec = int array
(** One machine word per net; bit [k] of word [v.(net)] is the value of
    [net] under pattern [k]. *)

val eval_words :
  Netlist.t ->
  pi:wvec ->
  state:wvec ->
  inject:(Netlist.net -> int -> int) ->
  wvec
(** Word-parallel combinational evaluation.  [pi] has one word per PI (in
    order); [state] one word per flip-flop (in order).  [inject net v]
    post-processes every computed net value — identity for good-machine
    simulation, a stuck-at mask for fault injection.  Returns the full
    net-value vector. *)

val po_words : Netlist.t -> wvec -> wvec
(** Extract PO values (in order) from a net-value vector. *)

val next_state_words : Netlist.t -> wvec -> wvec
(** Flip-flop next-state words (D-input capture) from a net-value vector,
    honouring load-enables and scan muxing.  Fault effects on flip-flop
    output nets are already part of the net-value vector via [inject]. *)
