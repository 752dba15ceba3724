(** Dictionary-based fault diagnosis.

    After production test fails, the observed pass/fail syndrome over the
    test set is matched against a precomputed fault dictionary to rank
    candidate defect locations — the flip side of the test-generation
    machinery, built on the same fault simulator. *)

open Socet_util
open Socet_netlist

type dictionary

val build : Netlist.t -> vectors:Bitvec.t list -> faults:Fault.t list -> dictionary
(** Simulates every fault against every vector, one {!Fsim.run_comb}
    pass per vector; the per-fault syndrome is the bitset of failing
    vectors. *)

val syndrome_of : dictionary -> Fault.t -> Bitvec.t option
(** The recorded syndrome, if the fault is in the dictionary. *)

val observe : Netlist.t -> vectors:Bitvec.t list -> fault:Fault.t -> Bitvec.t
(** The syndrome a device with exactly this defect produces (ground truth
    for the tests and demos). *)

val diagnose : dictionary -> Bitvec.t -> (Fault.t * int) list
(** Candidates ranked by Hamming distance between recorded and observed
    syndromes (0 = exact match), best first; exact matches only if any
    exist, otherwise the 10 nearest. *)

val distinguishable : dictionary -> float
(** Diagnostic resolution: percentage of dictionary faults whose syndrome
    is unique. *)
