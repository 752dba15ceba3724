open Socet_netlist
module Obs = Socet_obs.Obs

(* Observability: every optimizer probe of the area model passes through
   here, so this counter tracks how often design points are costed. *)
let c_evals = Obs.counter ~scope:"synth" "area.evals"

let of_netlist nl =
  Obs.incr c_evals;
  Netlist.area nl

let ff_count nl = List.length (Netlist.dffs nl)

let overhead_percent ~base ~extra =
  Obs.incr c_evals;
  if base = 0 then 0.0 else 100.0 *. float_of_int extra /. float_of_int base
