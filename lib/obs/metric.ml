type counter = int Atomic.t
type gauge = int Atomic.t

let make_counter () = Atomic.make 0
let make_gauge () = Atomic.make 0

let incr = Atomic.incr
let add c n = ignore (Atomic.fetch_and_add c n)
let value = Atomic.get

let set = Atomic.set

let rec set_max g v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then set_max g v

(* Timers accumulate from every domain (pool workers close spans too), so
   the float total lives behind a CAS loop on the boxed value — no float
   atomics in the stdlib, but compare-and-set on the box is enough. *)
type timer = { tm_count : int Atomic.t; tm_total_us : float Atomic.t }

let make_timer () = { tm_count = Atomic.make 0; tm_total_us = Atomic.make 0.0 }

let rec atomic_add_float a d =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. d)) then atomic_add_float a d

let timer_add t us =
  Atomic.incr t.tm_count;
  atomic_add_float t.tm_total_us us

let timer_count t = Atomic.get t.tm_count
let timer_total_us t = Atomic.get t.tm_total_us

let timer_reset t =
  Atomic.set t.tm_count 0;
  Atomic.set t.tm_total_us 0.0
