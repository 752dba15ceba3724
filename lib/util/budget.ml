(* The clock is injected (Socet_core.Resilient installs Obs.Clock at
   module-init time); lib/util links against nothing that can read time. *)
let clock : (unit -> float) option ref = ref None

let set_clock f = clock := Some f

type t = {
  b_label : string;
  mutable fuel : int;           (* steps remaining; max_int = unlimited *)
  mutable used : int;
  deadline_us : float;          (* absolute; infinity = none *)
  mutable countdown : int;      (* spends until the next clock check *)
  mutable dead : bool;          (* sticky exhaustion *)
}

(* Reading the clock on every spend would dominate PODEM's inner loop;
   amortize it. *)
let clock_check_period = 256

let create ?(label = "budget") ?steps ?deadline_s () =
  let deadline_us =
    match (deadline_s, !clock) with
    | Some s, Some now -> now () +. (s *. 1e6)
    | _ -> infinity
  in
  {
    b_label = label;
    fuel = (match steps with Some s -> max 0 s | None -> max_int);
    used = 0;
    deadline_us;
    countdown = clock_check_period;
    dead = false;
  }

let deadline_passed b =
  if b.deadline_us = infinity then false
  else
    match !clock with
    | None -> false
    | Some now ->
        if now () > b.deadline_us then begin
          b.dead <- true;
          true
        end
        else false

let drain cost b =
  b.used <- b.used + cost;
  if b.fuel <> max_int then b.fuel <- b.fuel - cost;
  if b.fuel < 0 then b.dead <- true;
  b.countdown <- b.countdown - 1;
  if b.countdown <= 0 then begin
    b.countdown <- clock_check_period;
    ignore (deadline_passed b)
  end

let spend ?(cost = 1) b =
  if b.dead then false
  else begin
    drain cost b;
    not b.dead
  end

let affordable ?(cost = 1) b =
  (not b.dead)
  && (not (deadline_passed b))
  && (b.fuel = max_int || b.fuel >= cost)

let exhausted b = b.dead || (b.deadline_us <> infinity && deadline_passed b)

let to_error b ~engine =
  Error.make ~kind:Error.Exhausted ~engine
    ~ctx:[ ("budget", b.b_label); ("steps_spent", string_of_int b.used) ]
    (Printf.sprintf "budget %s exhausted after %d steps" b.b_label b.used)
