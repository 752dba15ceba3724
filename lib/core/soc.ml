open Socet_rtl
open Socet_netlist
open Socet_synth
open Socet_scan
open Socet_atpg

type endpoint_ref = Pi of string | Po of string | Cport of string * string

type connection = { c_from : endpoint_ref; c_to : endpoint_ref }

type memory = { m_name : string; m_bits : int; m_bist_area : int }

type core_inst = {
  ci_name : string;
  ci_core : Rtl_core.t;
  ci_rcg : Rcg.t;
  ci_hscan : Hscan.result;
  ci_versions : Version.t list;
  ci_netlist : Netlist.t;
  ci_atpg : Podem.stats Lazy.t;
}

type t = {
  soc_name : string;
  insts : core_inst list;
  conns : connection list;
  soc_pis : (string * int) list;
  soc_pos : (string * int) list;
  memories : memory list;
}

(* The per-core ATPG stage (soc.mli), the one place a core's test set
   is reused.  The stage owns PODEM's parameters, so its key pins every
   input of the run, and it never passes a budget, so what it keeps is a
   pure function of the key.  An active store is looked up under the key
   in namespace "podem2" (the version pins the marshaled [Podem.stats]);
   with none, the process table is, under the same key.  The key is
   taken per call, not at [instantiate]: diff-test edits a netlist in
   between.  Two domains that miss one key compute the same
   deterministic record; the first insert wins. *)
let backtrack_limit = 1000
let random_patterns = 64
let seed = 42
let use_scoap = true
let atpg_table_capacity = 64
let atpg_table : (string, Podem.stats) Hashtbl.t = Hashtbl.create 16
let atpg_mu = Mutex.create ()

let core_atpg nl =
  let key =
    Printf.sprintf "%s|bt=%d|rp=%d|seed=%d|scoap=%b" (Structhash.netlist nl)
      backtrack_limit random_patterns seed use_scoap
  in
  let run () = Podem.run ~backtrack_limit ~random_patterns ~seed ~use_scoap nl in
  if Socet_cache.Cache.enabled () then Socet_cache.Cache.memo ~ns:"podem2" ~key run
  else
    match Mutex.protect atpg_mu (fun () -> Hashtbl.find_opt atpg_table key) with
    | Some stats -> stats
    | None ->
        let stats = run () in
        Mutex.protect atpg_mu (fun () ->
            match Hashtbl.find_opt atpg_table key with
            | Some first -> first
            | None ->
                if Hashtbl.length atpg_table >= atpg_table_capacity then
                  Hashtbl.reset atpg_table;
                Hashtbl.add atpg_table key stats;
                stats)

let instantiate ci_name core =
  let rcg = Rcg.of_core core in
  let hscan = Hscan.insert rcg in
  let versions = Version.generate rcg in
  let netlist = Elaborate.core_to_netlist core in
  {
    ci_name;
    ci_core = core;
    ci_rcg = rcg;
    ci_hscan = hscan;
    ci_versions = versions;
    ci_netlist = netlist;
    ci_atpg = lazy (core_atpg netlist);
  }

(* SOC assembly errors cross the user/library boundary: structured, so
   the CLI can print the offending core/port and exit cleanly. *)
let fail fmt =
  Printf.ksprintf
    (fun s ->
      raise
        (Socet_util.Error.Socet_error
           (Socet_util.Error.make ~kind:Socet_util.Error.Validation
              ~engine:"soc" s)))
    fmt

let endpoint_width soc = function
  | Pi n -> (
      match List.assoc_opt n soc.soc_pis with
      | Some w -> w
      | None -> fail "SOC %s: unknown PI %s" soc.soc_name n)
  | Po n -> (
      match List.assoc_opt n soc.soc_pos with
      | Some w -> w
      | None -> fail "SOC %s: unknown PO %s" soc.soc_name n)
  | Cport (i, p) -> (
      match List.find_opt (fun ci -> ci.ci_name = i) soc.insts with
      | None -> fail "SOC %s: unknown instance %s" soc.soc_name i
      | Some ci -> (
          try (Rtl_core.find_port ci.ci_core p).Rtl_core.p_width
          with Not_found -> fail "SOC %s: instance %s has no port %s" soc.soc_name i p))

let make ~name ~pis ~pos ~cores ~connections ?(memories = []) () =
  let soc =
    {
      soc_name = name;
      insts = cores;
      conns = connections;
      soc_pis = pis;
      soc_pos = pos;
      memories;
    }
  in
  (* Direction and width checks. *)
  List.iter
    (fun conn ->
      (match conn.c_from with
      | Po n -> fail "SOC %s: PO %s used as a driver" name n
      | Pi _ -> ()
      | Cport (i, p) ->
          let ci = List.find (fun ci -> ci.ci_name = i) soc.insts in
          if (Rtl_core.find_port ci.ci_core p).Rtl_core.p_dir <> `Out then
            fail "SOC %s: %s.%s is not an output" name i p);
      (match conn.c_to with
      | Pi n -> fail "SOC %s: PI %s used as a sink" name n
      | Po _ -> ()
      | Cport (i, p) ->
          let ci = List.find (fun ci -> ci.ci_name = i) soc.insts in
          if (Rtl_core.find_port ci.ci_core p).Rtl_core.p_dir <> `In then
            fail "SOC %s: %s.%s is not an input" name i p);
      let wf = endpoint_width soc conn.c_from
      and wt = endpoint_width soc conn.c_to in
      if wf <> wt then
        fail "SOC %s: width mismatch on connection (%d -> %d bits)" name wf wt)
    connections;
  (* Every core input driven exactly once. *)
  List.iter
    (fun ci ->
      List.iter
        (fun (p : Rtl_core.port) ->
          if p.Rtl_core.p_dir = `In then begin
            let drivers =
              List.filter (fun c -> c.c_to = Cport (ci.ci_name, p.Rtl_core.p_name)) connections
            in
            match drivers with
            | [ _ ] -> ()
            | [] ->
                fail "SOC %s: input %s.%s is undriven" name ci.ci_name p.Rtl_core.p_name
            | _ ->
                fail "SOC %s: input %s.%s has multiple drivers" name ci.ci_name
                  p.Rtl_core.p_name
          end)
        (Rtl_core.ports ci.ci_core))
    cores;
  (* Every chip PO driven exactly once. *)
  List.iter
    (fun (po, _) ->
      match List.filter (fun c -> c.c_to = Po po) connections with
      | [ _ ] -> ()
      | [] -> fail "SOC %s: PO %s is undriven" name po
      | _ -> fail "SOC %s: PO %s has multiple drivers" name po)
    pos;
  soc

let inst soc name =
  match List.find_opt (fun ci -> ci.ci_name = name) soc.insts with
  | Some ci -> ci
  | None -> raise Not_found

let version_of ci k =
  let rec best last = function
    | [] -> last
    | v :: rest ->
        if v.Version.v_index <= k then best v rest else last
  in
  match ci.ci_versions with
  | [] ->
      Socet_util.Error.raisef ~kind:Socet_util.Error.Validation ~engine:"soc"
        ~ctx:[ ("core", ci.ci_name) ]
        "version_of: core has no versions"
  | v :: rest -> best v rest

let atpg_vectors ci = List.length (Lazy.force ci.ci_atpg).Podem.vectors

let hscan_vectors ci =
  Hscan.vector_count ci.ci_hscan ~atpg_vectors:(atpg_vectors ci)

let original_area soc =
  List.fold_left (fun acc ci -> acc + Netlist.area ci.ci_netlist) 0 soc.insts

let hscan_area_overhead soc =
  List.fold_left
    (fun acc ci -> acc + ci.ci_hscan.Hscan.overhead_cells)
    0 soc.insts

let driver_of soc inst_name port =
  List.find_opt (fun c -> c.c_to = Cport (inst_name, port)) soc.conns
  |> Option.map (fun c -> c.c_from)

let endpoint_str = function
  | Pi n -> "pi:" ^ n
  | Po n -> "po:" ^ n
  | Cport (i, p) -> "cp:" ^ i ^ "." ^ p

(* The SOC's wiring shape with cores as opaque boxes: everything that
   pins the CCG's node/edge enumeration order (chip pins, instance and
   port order, connection order) without looking inside any core.  The
   first component of [content_hash]. *)
let skeleton_hash soc =
  let b = Buffer.create 512 in
  Buffer.add_string b "socet-skeleton-v1\n";
  List.iter (fun (n, w) -> Buffer.add_string b (Printf.sprintf "pi %s %d\n" n w)) soc.soc_pis;
  List.iter (fun (n, w) -> Buffer.add_string b (Printf.sprintf "po %s %d\n" n w)) soc.soc_pos;
  List.iter
    (fun ci ->
      Buffer.add_string b (Printf.sprintf "inst %s\n" ci.ci_name);
      List.iter
        (fun (p : Rtl_core.port) ->
          Buffer.add_string b
            (Printf.sprintf "  port %s %s %d\n" p.Rtl_core.p_name
               (match p.Rtl_core.p_dir with `In -> "in" | `Out -> "out")
               p.Rtl_core.p_width))
        (Rtl_core.ports ci.ci_core))
    soc.insts;
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "conn %s -> %s\n" (endpoint_str c.c_from) (endpoint_str c.c_to)))
    soc.conns;
  List.iter
    (fun m -> Buffer.add_string b (Printf.sprintf "mem %s %d %d\n" m.m_name m.m_bits m.m_bist_area))
    soc.memories;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Skeleton plus full core contents: the identity of the whole design.
   A core's RTL identity is its complete rendering (ports, registers,
   transfers in declaration order).  The elaborated netlist hashes in
   too: it is normally a pure function of the RTL, but a direct netlist
   edit (the diff-test scenario) changes test sets without changing the
   RTL rendering. *)
let content_hash soc =
  let b = Buffer.create 512 in
  Buffer.add_string b (skeleton_hash soc);
  List.iter
    (fun ci ->
      let rtl = Format.asprintf "%a" Rtl_core.pp ci.ci_core in
      Buffer.add_string b
        (Printf.sprintf "\n%s %s %s" ci.ci_name
           (Digest.to_hex (Digest.string rtl))
           (Structhash.netlist ci.ci_netlist)))
    soc.insts;
  Digest.to_hex (Digest.string (Buffer.contents b))
