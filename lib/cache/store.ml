(* On-disk content-addressed entry store (store.mli). *)

module Err = Socet_util.Error

(* Entry file format, version 1:

     SOCETC1\n
     <ns-len> <key-len> <payload-len>\n
     <ns bytes><key bytes><payload bytes><16-byte MD5>

   The trailing digest covers everything before it; the full namespace
   and key are stored (not just their hash) so a hash-bucket collision
   or a stale file is detected by comparison, never trusted.  Files are
   written to a temp name and renamed into place, so readers — including
   concurrent fleet domains and forked serve workers — only ever see a
   complete entry or none. *)

let magic = "SOCETC1\n"

type t = {
  st_dir : string;
  st_limit : int;  (* byte bound for eviction *)
  (* In-memory size index (path -> bytes), maintained so eviction does
     not rescan the tree on every store; mtimes are read lazily at
     eviction time.  Guarded: fleet entries run on pool domains. *)
  st_sizes : (string, int) Hashtbl.t;
  st_bytes : int ref;
  st_mu : Mutex.t;
}

let default_limit_bytes =
  match Sys.getenv_opt "SOCET_CACHE_LIMIT_MB" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some mb when mb > 0 -> mb * 1024 * 1024
      | _ -> 256 * 1024 * 1024)
  | None -> 256 * 1024 * 1024

let locked t f =
  Mutex.lock t.st_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.st_mu) f

let bytes_used t = locked t (fun () -> !(t.st_bytes))

(* ------------------------------------------------------------------ *)
(* Opening: create-if-missing, reject unwritable, index what's there   *)
(* ------------------------------------------------------------------ *)

let scan_entries dirname =
  (* One level of namespace directories, entry files below. *)
  let entries = ref [] in
  Array.iter
    (fun ns ->
      let nsdir = Filename.concat dirname ns in
      if Sys.is_directory nsdir then
        Array.iter
          (fun f ->
            let path = Filename.concat nsdir f in
            match (Unix.stat path).Unix.st_kind with
            | Unix.S_REG ->
                entries := (path, (Unix.stat path).Unix.st_size) :: !entries
            | _ -> ()
            | exception Unix.Unix_error _ -> ())
          (Sys.readdir nsdir))
    (Sys.readdir dirname);
  !entries

let open_store ?(limit_bytes = default_limit_bytes) dirname =
  let invalid fmt =
    Printf.ksprintf
      (fun msg ->
        Error
          (Err.make ~kind:Err.Validation ~engine:"cache"
             ~ctx:[ ("dir", dirname) ] msg))
      fmt
  in
  match
    if Sys.file_exists dirname then
      if Sys.is_directory dirname then Ok ()
      else invalid "--cache target exists and is not a directory"
    else begin
      (try Unix.mkdir dirname 0o755
       with Unix.Unix_error (e, _, _) when e <> Unix.EEXIST ->
         raise (Sys_error (Unix.error_message e)));
      Ok ()
    end
  with
  | exception Sys_error e -> invalid "cannot create cache directory: %s" e
  | Error e -> Error e
  | Ok () -> (
      (* Writability probe: an unwritable directory must fail up front
         with the documented exit-code-3 validation error, not as a
         Sys_error out of the first engine that tries to store. *)
      let probe = Filename.concat dirname ".socet-cache-probe" in
      match
        let oc = open_out probe in
        close_out oc;
        Sys.remove probe
      with
      | exception Sys_error e -> invalid "cache directory is not writable: %s" e
      | () ->
          let sizes = Hashtbl.create 64 in
          let total = ref 0 in
          List.iter
            (fun (path, sz) ->
              Hashtbl.replace sizes path sz;
              total := !total + sz)
            (try scan_entries dirname with Sys_error _ -> []);
          Ok
            {
              st_dir = dirname;
              st_limit = limit_bytes;
              st_sizes = sizes;
              st_bytes = total;
              st_mu = Mutex.create ();
            })

(* ------------------------------------------------------------------ *)
(* Entry paths and codec                                               *)
(* ------------------------------------------------------------------ *)

let sanitize_ns ns =
  String.map (fun c -> if c = '/' || c = '.' || c = '\x00' then '_' else c) ns

let entry_path t ~ns ~key =
  let nsdir = Filename.concat t.st_dir (sanitize_ns ns) in
  Filename.concat nsdir (Digest.to_hex (Digest.string key))

let encode ~ns ~key payload =
  let b = Buffer.create (String.length payload + 128) in
  Buffer.add_string b magic;
  Buffer.add_string b
    (Printf.sprintf "%d %d %d\n" (String.length ns) (String.length key)
       (String.length payload));
  Buffer.add_string b ns;
  Buffer.add_string b key;
  Buffer.add_string b payload;
  let body = Buffer.contents b in
  body ^ Digest.string body

(* Strict parse; any deviation — wrong magic, short file, bad digest,
   key mismatch — is [None].  Corruption is a miss, never a crash. *)
let decode ~ns ~key data =
  let ( let* ) o f = Option.bind o f in
  let len = String.length data in
  let* () = if len > String.length magic + 16 then Some () else None in
  let* () =
    if String.sub data 0 (String.length magic) = magic then Some () else None
  in
  let* nl = String.index_from_opt data (String.length magic) '\n' in
  let header = String.sub data (String.length magic) (nl - String.length magic) in
  let* ns_len, key_len, pay_len =
    match String.split_on_char ' ' header with
    | [ a; b; c ] -> (
        match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
        | Some a, Some b, Some c when a >= 0 && b >= 0 && c >= 0 -> Some (a, b, c)
        | _ -> None)
    | _ -> None
  in
  let body_len = nl + 1 + ns_len + key_len + pay_len in
  let* () = if len = body_len + 16 then Some () else None in
  let* () =
    if Digest.string (String.sub data 0 body_len) = String.sub data body_len 16
    then Some ()
    else None
  in
  let* () = if String.sub data (nl + 1) ns_len = ns then Some () else None in
  let* () =
    if String.sub data (nl + 1 + ns_len) key_len = key then Some () else None
  in
  Some (String.sub data (nl + 1 + ns_len + key_len) pay_len)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Some s
          | exception (Sys_error _ | End_of_file) -> None)

(* ------------------------------------------------------------------ *)
(* find / store / evict                                                *)
(* ------------------------------------------------------------------ *)

let touch path =
  (* LRU clock: a hit bumps the entry's mtime so eviction drops the
     least-recently-*used* entry, not the least-recently-written one. *)
  try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ()

let drop t path =
  match Hashtbl.find_opt t.st_sizes path with
  | Some sz ->
      Hashtbl.remove t.st_sizes path;
      t.st_bytes := !(t.st_bytes) - sz
  | None -> ()

let find t ~ns ~key =
  let path = entry_path t ~ns ~key in
  match read_file path with
  | None -> None
  | Some data -> (
      match decode ~ns ~key data with
      | Some payload ->
          touch path;
          Some payload
      | None ->
          (* Corrupt or foreign: remove so the slot heals on next store. *)
          locked t (fun () ->
              drop t path;
              try Sys.remove path with Sys_error _ -> ());
          None)

let evict_locked t =
  if !(t.st_bytes) > t.st_limit then begin
    let aged =
      Hashtbl.fold
        (fun path sz acc ->
          match Unix.stat path with
          | st -> (st.Unix.st_mtime, path, sz) :: acc
          | exception Unix.Unix_error _ ->
              (* Already gone (e.g. another process evicted it). *)
              (neg_infinity, path, sz) :: acc)
        t.st_sizes []
      |> List.sort compare
    in
    List.iter
      (fun (_, path, _) ->
        if !(t.st_bytes) > t.st_limit then begin
          drop t path;
          (try Sys.remove path with Sys_error _ -> ());
          Metrics.evicted ()
        end)
      aged
  end

let store t ~ns ~key payload =
  let path = entry_path t ~ns ~key in
  let data = encode ~ns ~key payload in
  (* Refuse pathological single entries rather than thrash the store. *)
  if String.length data <= t.st_limit then begin
    (try Unix.mkdir (Filename.dirname path) 0o755
     with Unix.Unix_error _ -> ());
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Domain.self () :> int)
    in
    match
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc data);
      Sys.rename tmp path
    with
    | exception Sys_error _ -> (try Sys.remove tmp with Sys_error _ -> ())
    | () ->
        locked t (fun () ->
            drop t path;
            Hashtbl.replace t.st_sizes path (String.length data);
            t.st_bytes := !(t.st_bytes) + String.length data;
            evict_locked t;
            Metrics.set_bytes !(t.st_bytes))
  end
