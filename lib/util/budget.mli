(** Fuel/deadline budgets for the search engines.

    Every unbounded loop in the flow — PODEM's decision/backtrack loop,
    transparency-path search, the iterative-improvement optimizer — takes
    a budget and {e cooperatively} checks it with {!spend}.  When the budget runs out the engine stops and returns a
    degraded-but-valid answer (an [Aborted] fault, a [None] path, the
    trajectory so far) instead of spinning forever; see
    [Socet_core.Resilient] for how the outcomes ladder down.

    A budget combines:
    - {e fuel}: a step count, decremented by every {!spend};
    - {e deadline}: an optional wall-clock bound, checked every few hundred
      steps so the clock read does not dominate tight loops.

    The wall-clock source is injected once with {!set_clock} (done at
    module-init time by [Socet_core.Resilient], which passes
    [Socet_obs.Clock.now_us]); [lib/util] itself stays clock-free.  With no
    clock installed, deadlines are inert and budgets are pure fuel. *)

type t

val set_clock : (unit -> float) -> unit
(** Install the wall-clock source (absolute microseconds).  Idempotent. *)

val create : ?label:string -> ?steps:int -> ?deadline_s:float -> unit -> t
(** [steps] is the fuel (default: unlimited); [deadline_s] is a wall-clock
    allowance in seconds from now (default: none; inert when no clock is
    installed). *)

val spend : ?cost:int -> t -> bool
(** Drain [cost] (default 1) steps; [true] while the budget still holds.
    The cooperative check-point: engines call it once per search step and
    unwind when it returns [false].  Once it returns [false] it keeps
    returning [false]. *)

val affordable : ?cost:int -> t -> bool
(** Non-consuming peek: would [spend ~cost] succeed right now?  Lets a
    caller decide whether to start a [cost]-unit phase without charging
    for it (the optimizer uses this to stop cleanly between steps).
    Reads the clock (so a passed deadline is detected) but drains no
    fuel. *)

val exhausted : t -> bool
(** Sticky: has any {!spend} failed, or was the deadline passed? *)

val to_error : t -> engine:string -> Error.t
(** An [Error.Exhausted] describing this budget (label, steps spent). *)
