(** System-on-chip descriptions: core instances, interconnect, and the
    per-core artifacts (gate netlist, HSCAN chains, transparency versions,
    precomputed test sets) that the chip-level machinery consumes.

    Memory cores are modelled as opaque BIST-tested blocks and excluded
    from the test-access analysis, as in the paper (Sec. 5, [8]). *)

open Socet_rtl
open Socet_netlist
open Socet_scan
open Socet_atpg

type endpoint_ref =
  | Pi of string                (** chip primary input *)
  | Po of string                (** chip primary output *)
  | Cport of string * string    (** (instance, port) *)

type connection = { c_from : endpoint_ref; c_to : endpoint_ref }

type memory = { m_name : string; m_bits : int; m_bist_area : int }

type core_inst = {
  ci_name : string;
  ci_core : Rtl_core.t;
  ci_rcg : Rcg.t;
  ci_hscan : Hscan.result;
  ci_versions : Version.t list;
  ci_netlist : Netlist.t;
  ci_atpg : Podem.stats Lazy.t;
      (** {!core_atpg} of [ci_netlist], the combinational ATPG on the
          full-scan model of the core; forced on first use (vector
          counts, fault coverage).  Forcing one lazy from two domains at
          once races: force it before fanning out. *)
}

type t = {
  soc_name : string;
  insts : core_inst list;
  conns : connection list;
  soc_pis : (string * int) list;
  soc_pos : (string * int) list;
  memories : memory list;
}

val core_atpg : Netlist.t -> Podem.stats
(** The per-core ATPG stage: {!Socet_atpg.Podem.run} with backtrack
    limit 1000, 64 random patterns, seed 42 and SCOAP guidance, run at
    most once per distinct netlist per process.  It is the only code
    that reuses a core's test set, and it looks one up under one key:
    {!Socet_netlist.Structhash.netlist} plus those four parameters.
    - With a result store active ({!Socet_cache.Cache.enabled}), the
      key is looked up in the store's [podem2] namespace, so the store's
      scoreboard counts every lookup.
    - With no store active, the key is looked up in a process-wide
      table of at most 64 entries (cleared when full), guarded by a
      mutex.  A miss runs PODEM outside the lock and keeps the first
      record inserted.
    The stage never passes a budget, so every record it keeps is a pure
    function of its key.  The hash is taken at each call, so a netlist
    edited after {!instantiate} gets its own test set.  Safe to call
    from several domains at once. *)

val instantiate : string -> Rtl_core.t -> core_inst
(** Elaborates the core, inserts HSCAN, generates the version ladder and
    prepares the lazy {!core_atpg} run.  Nothing here runs ATPG, hashes
    the netlist or touches the result cache; all of that happens when
    [ci_atpg] is forced. *)

val make :
  name:string ->
  pis:(string * int) list ->
  pos:(string * int) list ->
  cores:core_inst list ->
  connections:connection list ->
  ?memories:memory list ->
  unit ->
  t
(** Validates: referenced instances/ports exist, widths match, every core
    input and chip PO is driven exactly once.
    @raise Invalid_argument with a diagnostic. *)

val inst : t -> string -> core_inst
(** @raise Not_found *)

val version_of : core_inst -> int -> Version.t
(** [version_of ci k] is the version with index [k] (1-based); clamps to
    the nearest available rung. *)

val atpg_vectors : core_inst -> int
(** Size of the core's precomputed combinational test set. *)

val hscan_vectors : core_inst -> int
(** ATPG vectors times the HSCAN shift multiplier (depth + 1) — the number
    of chip-level vector slots needed to test this core. *)

val original_area : t -> int
(** Sum of core areas plus memory BIST-free area (cells). *)

val hscan_area_overhead : t -> int
(** Core-level DFT cost: sum of the cores' HSCAN insertion costs. *)

val driver_of : t -> string -> string -> endpoint_ref option
(** [driver_of soc inst port]: what drives this core input. *)

(** {2 Content hash} *)

val content_hash : t -> string
(** Hex MD5 identity of the whole design: the SOC's wiring shape with
    cores opaque (chip pins, instance/port order, connections,
    memories), plus every instance's full RTL rendering {e and}
    {!Socet_netlist.Structhash.netlist} of its elaborated netlist.  The
    netlist hashes in separately because a direct netlist edit changes
    test sets without changing the RTL rendering.  No result is keyed
    by it: the persistent cache stores only per-core ATPG, keyed by the
    netlist hash alone (DESIGN.md §16). *)
