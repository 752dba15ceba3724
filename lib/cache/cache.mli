(** Content-addressed persistent result cache — the engine-facing facade
    (DESIGN.md §16).

    One namespace exists: [podem2], per-core ATPG results keyed by
    {!Socet_netlist.Structhash} plus the PODEM parameters, read and
    written only by the per-core ATPG stage
    ([Socet_core.Soc.core_atpg]).  That is the only expensive artifact;
    chip-level plans (CCG schedules, TAM schedules, access routes,
    version ladders) are cheap to rebuild from it and are never
    stored.  The CLI and the serve dispatcher decide {e whether} a
    store is active ([--cache DIR], the wire protocol's cache field).
    With no active store every entry point is a no-op, so un-cached
    runs pay one atomic load per hook.

    Contract: a cached artifact is byte-identical to what the engine
    would recompute — namespaces embed a format version, and keys pin
    every input that can influence the result.  Observability:
    [cache.{hits,misses,stores,evictions}] counters and the
    [cache.bytes] gauge. *)

val enabled : unit -> bool

val with_store : Store.t option -> (unit -> 'a) -> 'a
(** Run the thunk with the given store active, restoring the previous
    one after — the serve dispatcher's per-request scoping. *)

val open_dir : string -> (Store.t, Socet_util.Error.t) result

val activate_dir : string -> (unit, Socet_util.Error.t) result
(** {!open_dir}, then make the store active for the rest of the
    process: the CLI's [--cache DIR] validation
    (create-if-missing, reject unwritable — structured error, exit 3). *)

val find : ns:string -> key:string -> 'a option
(** Marshal-typed lookup in the active store; [None] when no store is
    active, on absence, or on any integrity failure.  Type safety is by
    namespace convention: the [ns] string embeds a format version bumped
    with the marshaled type, so stale stores miss instead of decoding
    garbage. *)

val memo : ns:string -> key:string -> (unit -> 'a) -> 'a
(** [find] or compute-and-store: the only way the per-core ATPG stage
    writes.  The value should be plain data: a closure or custom block
    is returned but not stored.  Without an active store the thunk just
    runs. *)

val scoreboard : unit -> (string * int * int) list
(** Per-namespace [(ns, hits, misses)] since the last reset, sorted —
    the raw material of [socet diff-test]'s reused-vs-recomputed
    report. *)

val reset_scoreboard : unit -> unit
