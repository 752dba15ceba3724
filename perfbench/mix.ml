(* The paper request mix shared by paper_mix and serve_warm: its
   requests, their seeded order, the expected outputs recorded from the
   seed commit, and the plan-quality figures read back from an output. *)

module Proto = Socet_serve.Proto
module Rng = Socet_util.Rng

(* Systems 1-3 and their six cores.  chip (ccg), chip (tam) and explore
   each take one system, so all six cores are ATPG'd inside a plan;
   systems 2 and 3 share GFX, GCD and X25, and CPU and X25 are ATPG'd
   again by an atpg request of their own: the same netlists recur across
   requests.  The atpg requests take cheap cores so that a pass is short
   enough to be made several times in a run (main.ml), and the mix has an odd
   number of requests so that the median latency of a run falls on one
   request's samples, not between two requests of very different cost. *)
let args =
  [
    [ "chip"; "system1" ];
    [ "chip"; "system2"; "--backend"; "tam" ];
    [ "explore"; "system3" ];
    [ "atpg"; "cpu" ];
    [ "atpg"; "x25" ];
  ]

type request = { label : string; req : Proto.t }

let requests =
  List.map
    (fun a ->
      match Proto.of_args a with
      | Ok req -> { label = String.concat " " a; req }
      | Error e -> failwith ("perfbench: bad mix request: " ^ e))
    args

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* One RNG per run, one fresh permutation of [xs] per pass. *)
let orderer ~seed xs =
  let rng = Rng.create seed in
  fun () -> shuffle rng xs

(* The order of pass [pass] (0-based) of a run. *)
let order ~seed ~pass xs =
  let next = orderer ~seed xs in
  for _ = 1 to pass do ignore (next ()) done;
  next ()

(* What a request printed: stdout, stderr and exit code, whether it ran
   in-process or over the wire. *)
type output = { stdout : string; stderr : string; code : int }

let digest o =
  Digest.to_hex
    (Digest.string (String.concat "\000" [ o.stdout; o.stderr; string_of_int o.code ]))

(* Plan quality printed by each request kind: chip prints "total time: T
   cycles, area overhead: A cells", explore "best: area A cells, TAT T
   cycles", atpg a one-row table whose fourth column is FC %. *)
type quality = { tat : int option; area : int option; cov : string option }

let quality_of stdout =
  let lines = String.split_on_char '\n' stdout in
  let scan fmt k = List.find_map (fun l -> try Some (Scanf.sscanf l fmt k) with _ -> None) lines in
  match scan "total time: %d cycles, area overhead: %d cells" (fun t a -> (t, a)) with
  | Some (t, a) -> { tat = Some t; area = Some a; cov = None }
  | None -> (
      match scan "best: area %d cells, TAT %d cycles" (fun a t -> (t, a)) with
      | Some (t, a) -> { tat = Some t; area = Some a; cov = None }
      | None ->
          let cov =
            List.find_map
              (fun l ->
                match List.map String.trim (String.split_on_char '|' l) with
                | [ ""; _core; _faults; _vectors; fc; _; _; "" ] when Float.of_string_opt fc <> None ->
                    Some fc
                | _ -> None)
              lines
          in
          { tat = None; area = None; cov })

(* perfbench/expected.txt: one line per request, "label<TAB>digest<TAB>
   tat<TAB>area<TAB>cov" with "-" for a figure the request does not
   print.  Written by [main.exe --record] on the seed commit. *)
let expected_path = "perfbench/expected.txt"

type expected = { e_digest : string; e_quality : quality }

let opt f = function "-" -> None | s -> Some (f s)
let show f = function None -> "-" | Some x -> f x

let expected_line label o =
  let q = quality_of o.stdout in
  String.concat "\t"
    [ label; digest o; show string_of_int q.tat; show string_of_int q.area; show Fun.id q.cov ]

let load_expected () =
  let ic = open_in expected_path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        acc
    | line -> (
        match String.split_on_char '\t' line with
        | [ label; d; tat; area; cov ] ->
            go
              (( label,
                 {
                   e_digest = d;
                   e_quality =
                     { tat = opt int_of_string tat; area = opt int_of_string area; cov = opt Fun.id cov };
                 } )
              :: acc)
        | _ -> failwith ("perfbench: malformed line in " ^ expected_path ^ ": " ^ line))
  in
  let table = go [] in
  List.iter
    (fun r ->
      if not (List.mem_assoc r.label table) then
        failwith ("perfbench: no expected output for " ^ r.label))
    requests;
  table
