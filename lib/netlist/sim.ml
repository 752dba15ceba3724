module Bitvec = Socet_util.Bitvec

let word_width = Flat.word_width

type state = Bitvec.t

let initial_state t = Bitvec.create (List.length (Netlist.dffs t))

type wvec = int array

let all_ones = Flat.all_ones

(* Shared combinational evaluation over machine words, on the flat form
   cached on the netlist — no per-call Hashtbl construction or list
   traversal.  The scalar engine reuses it with 1-bit-meaningful words. *)
let eval_words t ~pi ~state ~inject =
  let f = Flat.of_netlist t in
  let v = Array.make f.Flat.n 0 in
  Flat.eval_inject f ~pi ~state ~inject v;
  v

let po_words t v = Flat.po_words (Flat.of_netlist t) v
let next_state_words t v = Flat.next_state_words (Flat.of_netlist t) v

let words_of_bitvec bv = Array.init (Bitvec.length bv) (fun i -> if Bitvec.get bv i then all_ones else 0)

let bitvec_of_words w =
  let bv = Bitvec.create (Array.length w) in
  Array.iteri (fun i x -> Bitvec.set bv i (x land 1 = 1)) w;
  bv

let eval t ~pi ~state =
  let f = Flat.of_netlist t in
  let v = Array.make f.Flat.n 0 in
  Flat.eval_good f ~pi:(words_of_bitvec pi) ~state:(words_of_bitvec state) v;
  (bitvec_of_words (Flat.po_words f v), bitvec_of_words (Flat.next_state_words f v))
