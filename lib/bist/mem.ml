type fault =
  | Cell_saf of { addr : int; bit : int; stuck : bool }
  | Transition of { addr : int; bit : int; rising : bool }
  | Coupling of { aggressor : int; victim : int; bit : int; value : bool }
  | Decoder_alias of { a : int; b : int }

type t = {
  m_words : int;
  m_width : int;
  cells : int array;
  fault : fault option;
}

let create ?fault ~words ~width () =
  if words <= 0 || width <= 0 || width > 30 then invalid_arg "Mem.create";
  { m_words = words; m_width = width; cells = Array.make words 0; fault }

let words t = t.m_words
let width t = t.m_width

let decode t addr =
  let addr =
    match t.fault with
    | Some (Decoder_alias { a; b }) -> if addr = a then b else addr
    | _ -> addr
  in
  if addr < 0 || addr >= t.m_words then invalid_arg "Mem: address out of range";
  addr

let apply_saf t addr v =
  match t.fault with
  | Some (Cell_saf { addr = fa; bit; stuck }) when fa = addr ->
      if stuck then v lor (1 lsl bit) else v land lnot (1 lsl bit)
  | _ -> v

let read t addr =
  let addr = decode t addr in
  apply_saf t addr t.cells.(addr)

let write t addr v =
  let addr = decode t addr in
  let v = v land ((1 lsl t.m_width) - 1) in
  let old = t.cells.(addr) in
  let v =
    match t.fault with
    | Some (Transition { addr = fa; bit; rising }) when fa = addr ->
        let was = (old lsr bit) land 1 and now = (v lsr bit) land 1 in
        if rising && was = 0 && now = 1 then v land lnot (1 lsl bit)
        else if (not rising) && was = 1 && now = 0 then v lor (1 lsl bit)
        else v
    | _ -> v
  in
  t.cells.(addr) <- apply_saf t addr v;
  (* Coupling: the aggressor write disturbs the victim. *)
  match t.fault with
  | Some (Coupling { aggressor; victim; bit; value }) when aggressor = addr ->
      if (v lsr bit) land 1 = if value then 1 else 0 then begin
        let vic = t.cells.(victim) in
        t.cells.(victim) <-
          (if value then vic lor (1 lsl bit) else vic land lnot (1 lsl bit))
      end
  | _ -> ()

let all_faults ~words ~width =
  let acc = ref [] in
  for addr = 0 to words - 1 do
    for bit = 0 to width - 1 do
      acc := Cell_saf { addr; bit; stuck = true } :: !acc;
      acc := Cell_saf { addr; bit; stuck = false } :: !acc;
      acc := Transition { addr; bit; rising = true } :: !acc;
      acc := Transition { addr; bit; rising = false } :: !acc;
      if addr + 1 < words then begin
        acc := Coupling { aggressor = addr; victim = addr + 1; bit; value = true } :: !acc;
        acc := Coupling { aggressor = addr + 1; victim = addr; bit; value = false } :: !acc
      end
    done;
    if addr + 1 < words then acc := Decoder_alias { a = addr; b = addr + 1 } :: !acc
  done;
  List.rev !acc
