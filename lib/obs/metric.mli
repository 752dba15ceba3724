(** Primitive metric cells: atomic counters/gauges and monotonic timers.

    Every cell is safe to update from any domain: counters and gauges are
    [Atomic.t] ints, and timers keep their call count and accumulated
    wall-time (microseconds) in atomics as well — the pool workers in
    [Socet_util.Pool] close spans concurrently, and each close lands in a
    shared registry timer. *)

type counter = int Atomic.t
type gauge = int Atomic.t

val make_counter : unit -> counter
val make_gauge : unit -> gauge

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val set : gauge -> int -> unit
val set_max : gauge -> int -> unit
(** Lock-free monotonic maximum (peak tracking, e.g. D-frontier size). *)

type timer

val make_timer : unit -> timer

val timer_add : timer -> float -> unit
(** Accumulate one call of the given duration (µs); lock-free. *)

val timer_count : timer -> int
val timer_total_us : timer -> float
val timer_reset : timer -> unit
