(** Fixed domain pool with chunked work-stealing and a deterministic
    reduction contract.

    The pool owns [size () - 1] worker domains (the submitting domain is
    the last worker), spawned lazily on the first parallel call and kept
    alive across calls.  Work is split into chunks; idle domains steal the
    next unclaimed chunk via a single atomic cursor, so an uneven workload
    (e.g. faults with very different cone sizes) still load-balances.

    {b Deterministic-reduction contract.}  Every combinator merges partial
    results in {e submission order}: [parallel_map f xs] writes slot [i]
    from [xs.(i)] no matter which domain computed it, and
    [parallel_reduce] folds the mapped values left-to-right over the input
    order.  Provided [f] itself is pure (or touches only atomics/
    per-domain scratch), the N-domain result is bit-identical to the
    1-domain result — the property the SOCET engines' qcheck determinism
    suite pins down.

    Sizing: [SOCET_DOMAINS] in the environment, or {!set_size} (the CLI's
    [--jobs]), else [Domain.recommended_domain_count ()].  At size 1, or
    when called from inside a pool task (nested parallelism), every
    combinator degrades to the plain sequential loop — same results, no
    deadlock. *)

val size : unit -> int
(** Effective pool size (>= 1): the {!set_size} override if any, else
    [SOCET_DOMAINS], else [Domain.recommended_domain_count ()]. *)

val set_size : int -> unit
(** Override the pool size (clamped to >= 1).  An existing pool of a
    different size is torn down and respawned on the next parallel call. *)

val chunk_size : ?chunk:int -> ?cost:float -> int -> int
(** The work-stealing granularity the combinators below use for [n]
    items, exposed for tests and tuning.  An explicit [chunk] wins;
    otherwise the heuristic: at least [n / (4 * size ())] (4 chunks per
    domain), raised until a chunk carries ~2048 estimated work units
    when [cost] (units per item, e.g. p50 gates per fault cone) says
    items are tiny — coarse shards instead of per-item fan-out. *)

val parallel_iter_ranges :
  ?chunk:int -> ?cost:float -> int -> (int -> int -> unit) -> unit
(** [parallel_iter_ranges n f] partitions [0 .. n-1] into chunks (see
    {!chunk_size}) and calls [f lo hi] (hi exclusive) for each, stolen
    across the pool.  The coarse-shard primitive: one parallel region
    per engine call, with each domain looping over a whole index range
    so per-domain scratch persists across the items it owns. *)

val parallel_map : ?chunk:int -> ?cost:float -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map f xs] is [Array.map f xs] computed on the pool.
    [chunk]/[cost] control the work-stealing granularity (see
    {!chunk_size}).  Output order is input order.  The first exception
    raised by [f] is re-raised on the calling domain after all chunks
    settle. *)

val parallel_map_list : ?chunk:int -> ?cost:float -> ('a -> 'b) -> 'a list -> 'b list
(** [List.map f xs] on the pool; order preserved. *)

val parallel_reduce :
  ?chunk:int ->
  ?cost:float ->
  map:('a -> 'b) ->
  merge:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a array ->
  'acc
(** Maps on the pool, then folds [merge] sequentially over the results in
    submission order — deterministic even when [merge] is not
    commutative. *)

val shutdown : unit -> unit
(** Join and discard the worker domains (idempotent).  A later parallel
    call respawns them; registered with [at_exit] automatically. *)
