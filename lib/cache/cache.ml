(* The engine-facing facade over the persistent store (cache.mli). *)

(* One process-global active store, set by the CLI / the serve dispatcher
   before engines run.  Callers never see a store handle: the per-core
   ATPG stage calls [memo] with a namespace and a content key, and the
   whole subsystem is a no-op (one atomic load) when nothing is
   active — mirroring lib/obs's zero-cost-when-disabled discipline. *)

let active : Store.t option Atomic.t = Atomic.make None

let enabled () = Atomic.get active <> None

let with_store s f =
  let prev = Atomic.get active in
  Atomic.set active s;
  Fun.protect ~finally:(fun () -> Atomic.set active prev) f

let open_dir dir = Store.open_store dir

let activate_dir dir =
  match Store.open_store dir with
  | Ok s ->
      Atomic.set active (Some s);
      Ok ()
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Typed entries                                                       *)
(* ------------------------------------------------------------------ *)

(* Values cross processes via Marshal.  This is type-safe only by
   convention: every namespace string embeds a format version (e.g.
   "podem2"), bumped whenever the marshaled type changes shape, so a
   store written by an older build can only ever produce misses — the
   namespace is part of both the entry path and the verified entry
   header.  [Compat_32] keeps entries portable across word sizes. *)

let find (type a) ~ns ~key : a option =
  match Atomic.get active with
  | None -> None
  | Some s -> (
      match Store.find s ~ns ~key with
      | None ->
          Metrics.miss ns;
          None
      | Some payload -> (
          match (Marshal.from_string payload 0 : a) with
          | v ->
              Metrics.hit ns;
              Some v
          | exception (Failure _ | Invalid_argument _) ->
              (* A payload that passed the checksum but does not
                 unmarshal (e.g. truncated by a format bug): miss. *)
              Metrics.miss ns;
              None))

let store ~ns ~key v =
  match Atomic.get active with
  | None -> ()
  | Some s -> (
      match Marshal.to_string v [ Marshal.Compat_32 ] with
      | payload ->
          Store.store s ~ns ~key payload;
          Metrics.stored ()
      | exception Invalid_argument _ ->
          (* Unmarshalable value: Marshal rejects a closure or a custom
             block with [Invalid_argument].  Only plain data is cached,
             but never let a slip crash the run. *)
          ())

let memo ~ns ~key f =
  match find ~ns ~key with
  | Some v -> v
  | None ->
      let v = f () in
      store ~ns ~key v;
      v

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let scoreboard = Metrics.scoreboard
let reset_scoreboard = Metrics.reset_scoreboard
