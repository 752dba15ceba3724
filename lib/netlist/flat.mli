(** Flat, levelized, struct-of-arrays compilation of a netlist.

    {!of_netlist} compiles a netlist once into plain int arrays — kind
    codes, CSR fanin/fanout, topological order and levels, PI/DFF/PO index
    maps — cached on the netlist and invalidated by any mutation.  The
    word-parallel evaluators here are bit-identical to the original
    list/Hashtbl engine in {!Sim} but allocate nothing per call; the fault
    simulator additionally uses per-site {!cone}s so a single-fault
    evaluation touches only the fault's combinational fanout, and PODEM
    uses them to bound its D-frontier and observation checks.

    All fields are read-only for callers.  A compiled form is safe to
    share across domains: the arrays are never written after {!of_netlist}
    returns, and the cone cache is mutex-guarded. *)

type t = {
  n : int;  (** gate count *)
  kinds : int array;  (** kind code per gate (see the [k_*] codes) *)
  fanin_off : int array;  (** CSR offsets into [fanin], length [n+1] *)
  fanin : int array;  (** concatenated fanin nets *)
  order : int array;  (** = [Netlist.comb_order], flip-flops first *)
  topo_pos : int array;  (** inverse of [order] *)
  level : int array;  (** combinational depth (sources at 0) *)
  pis : int array;  (** PI nets in [Netlist.pis] order *)
  dffs : int array;  (** flip-flop nets in [Netlist.dffs] order *)
  pos_net : int array;  (** PO driving nets in [Netlist.pos] order *)
  pi_of : int array;  (** net -> PI index, or -1 *)
  dff_of : int array;  (** net -> flip-flop index, or -1 *)
  fanout_off : int array;  (** CSR offsets into [fanout], length [n+1] *)
  fanout : int array;  (** concatenated reader gates (all edges) *)
  is_obs : bool array;  (** net drives a PO or a flip-flop fanin pin *)
  cones : (int, cone) Hashtbl.t;  (** per-site fault cones, lazily built *)
  cones_mu : Mutex.t;
}

and cone = {
  c_site : int;
  c_gates : int array;
      (** the site and its combinational fanout, in topological order
          (site first) *)
  c_pos : int array;  (** indices into [pos_net] reachable from the site *)
  c_dffs : int array;
      (** flip-flop indices whose D capture reads a cone net *)
}

val word_width : int
val all_ones : int

(** Kind codes stored in [kinds]. *)

val k_pi : int
val k_const0 : int
val k_const1 : int
val k_buf : int
val k_inv : int
val k_and2 : int
val k_or2 : int
val k_nand2 : int
val k_nor2 : int
val k_xor2 : int
val k_xnor2 : int
val k_mux2 : int
val k_dff : int
val k_dffe : int
val k_sdff : int
val k_sdffe : int

val code_of_kind : Cell.kind -> int

val of_netlist : Netlist.t -> t
(** The cached flat form, compiling on first use.  @raise
    Socet_util.Error.Socet_error on a combinational cycle or dangling
    fanin (via [Netlist.comb_order]). *)

val eval_inject :
  t ->
  pi:int array ->
  state:int array ->
  inject:(int -> int -> int) ->
  int array ->
  unit
(** Word-parallel combinational evaluation into the caller's value array
    (size [n]), post-processing every computed value with [inject] —
    the generic engine behind {!Sim.eval_words}. *)

val eval_good : t -> pi:int array -> state:int array -> int array -> unit
(** {!eval_inject} specialised to identity injection (no closure call per
    gate) — good-machine simulation. *)

val eval_masked :
  t ->
  pi:int array ->
  state:int array ->
  and_mask:int array ->
  or_mask:int array ->
  int array ->
  unit
(** {!eval_inject} specialised to per-net stuck-at masks
    ([(v land and_mask.(g)) lor or_mask.(g)]) — sequential fault
    batches. *)

val po_words : t -> int array -> int array
(** PO values (in order) from a net-value array. *)

val next_state_words : t -> int array -> int array
(** Flip-flop D-capture words from a net-value array, honouring
    load-enables and scan muxing. *)

val capture : t -> read:(int -> int) -> int -> int
(** [capture f ~read k] is flip-flop [k]'s D-capture word with net values
    supplied by [read] — used by the fault simulator to read through its
    sparse faulty overlay. *)

val cone : t -> int -> cone * bool
(** [cone f site] is the fault cone of [site], built on first request and
    cached for the life of the compiled form; the boolean is [true] when
    the cone was served from the cache.  Thread-safe. *)
