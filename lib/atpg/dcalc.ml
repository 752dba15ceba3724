open Socet_netlist

type tv = T0 | T1 | TX

let tv_not = function T0 -> T1 | T1 -> T0 | TX -> TX

let tv_and a b =
  match (a, b) with
  | T0, _ | _, T0 -> T0
  | T1, T1 -> T1
  | _ -> TX

let tv_or a b =
  match (a, b) with
  | T1, _ | _, T1 -> T1
  | T0, T0 -> T0
  | _ -> TX

let tv_xor a b =
  match (a, b) with
  | TX, _ | _, TX -> TX
  | x, y -> if x = y then T0 else T1

let tv_mux s a b =
  match s with
  | T0 -> a
  | T1 -> b
  | TX -> if a = b && a <> TX then a else TX

let tv_of_bool b = if b then T1 else T0

type machine = { g : tv array; f : tv array }

let create n = { g = Array.make n TX; f = Array.make n TX }

(* Kind codes are [Flat.k_*]. *)
let eval_tv (fl : Flat.t) v g =
  let b = fl.Flat.fanin_off.(g) and fi = fl.Flat.fanin in
  match fl.Flat.kinds.(g) with
  | 1 -> T0
  | 2 -> T1
  | 3 -> v.(fi.(b))
  | 4 -> tv_not v.(fi.(b))
  | 5 -> tv_and v.(fi.(b)) v.(fi.(b + 1))
  | 6 -> tv_or v.(fi.(b)) v.(fi.(b + 1))
  | 7 -> tv_not (tv_and v.(fi.(b)) v.(fi.(b + 1)))
  | 8 -> tv_not (tv_or v.(fi.(b)) v.(fi.(b + 1)))
  | 9 -> tv_xor v.(fi.(b)) v.(fi.(b + 1))
  | 10 -> tv_not (tv_xor v.(fi.(b)) v.(fi.(b + 1)))
  | 11 -> tv_mux v.(fi.(b)) v.(fi.(b + 1)) v.(fi.(b + 2))
  | _ -> v.(g)

(* Ternary D capture of flip-flop [ff], per the cell semantics
   (enable hold, scan override). *)
let capture_tv (fl : Flat.t) v ff =
  let b = fl.Flat.fanin_off.(ff) and fi = fl.Flat.fanin in
  match fl.Flat.kinds.(ff) with
  | 12 -> v.(fi.(b))
  | 13 -> tv_mux v.(fi.(b + 1)) v.(ff) v.(fi.(b))
  | 14 -> tv_mux v.(fi.(b + 2)) v.(fi.(b)) v.(fi.(b + 1))
  | 15 ->
      let functional = tv_mux v.(fi.(b + 1)) v.(ff) v.(fi.(b)) in
      tv_mux v.(fi.(b + 3)) functional v.(fi.(b + 2))
  | _ -> assert false

let is_d m net = m.g.(net) <> TX && m.f.(net) <> TX && m.g.(net) <> m.f.(net)

let observable_d (fl : Flat.t) (cone : Flat.cone) m =
  Array.exists (fun k -> is_d m fl.Flat.pos_net.(k)) cone.Flat.c_pos
  || Array.exists
       (fun k ->
         let ff = fl.Flat.dffs.(k) in
         let gd = capture_tv fl m.g ff and fd = capture_tv fl m.f ff in
         gd <> TX && fd <> TX && gd <> fd)
       cone.Flat.c_dffs

let d_frontier (fl : Flat.t) (cone : Flat.cone) m =
  let kinds = fl.Flat.kinds and fi_off = fl.Flat.fanin_off and fi = fl.Flat.fanin in
  let has_d_fanin g =
    let rec go e = e < fi_off.(g + 1) && (is_d m fi.(e) || go (e + 1)) in
    go fi_off.(g)
  in
  let res = ref [] in
  let gates = cone.Flat.c_gates in
  for j = Array.length gates - 1 downto 0 do
    let g = gates.(j) in
    let k = kinds.(g) in
    if k > Flat.k_const1 && k < Flat.k_dff
       && (m.g.(g) = TX || m.f.(g) = TX)
       && has_d_fanin g
    then res := g :: !res
  done;
  !res

(* [seen] holds the epoch of the last search that reached each gate. *)
type xpath = { seen : int array; queue : int array; mutable epoch : int }

let xpath_scratch (fl : Flat.t) =
  { seen = Array.make fl.Flat.n 0; queue = Array.make (max 1 fl.Flat.n) 0; epoch = 0 }

let x_path_exists (fl : Flat.t) xp m frontier =
  let kinds = fl.Flat.kinds and fo_off = fl.Flat.fanout_off and fo = fl.Flat.fanout in
  let seen = xp.seen and xq = xp.queue in
  xp.epoch <- xp.epoch + 1;
  let ep = xp.epoch in
  let tail = ref 0 in
  List.iter
    (fun g ->
      seen.(g) <- ep;
      xq.(!tail) <- g;
      incr tail)
    frontier;
  let head = ref 0 and found = ref false in
  while (not !found) && !head < !tail do
    let g = xq.(!head) in
    incr head;
    if fl.Flat.is_obs.(g) then found := true
    else
      for j = fo_off.(g) to fo_off.(g + 1) - 1 do
        let h = fo.(j) in
        if seen.(h) <> ep
           && kinds.(h) < Flat.k_dff
           && (m.g.(h) = TX || m.f.(h) = TX)
        then begin
          seen.(h) <- ep;
          xq.(!tail) <- h;
          incr tail
        end
      done
  done;
  !found
