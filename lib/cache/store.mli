(** The on-disk half of the result cache: a bounded, LRU-evicted,
    checksummed entry store.

    Layout: one directory per namespace under the store root, one file
    per entry named by the MD5 of its key.  Every entry file carries a
    magic string, the full namespace and key (verified on read — a
    hash-bucket collision is detected, not trusted), the payload, and a
    trailing MD5 over everything before it.  Any deviation — truncation,
    bit rot, a foreign file — reads as a miss and the file is removed;
    corruption never crashes or poisons a run.

    Writes go to a temp file and are renamed into place, so concurrent
    readers (pool domains, forked serve workers, parallel CLI runs
    sharing a directory) see complete entries or nothing.  Eviction is
    least-recently-used via entry mtimes: a hit re-touches the file, and
    a store that pushes the tracked total over the byte limit deletes
    oldest-first until back under. *)

type t

val open_store :
  ?limit_bytes:int -> string -> (t, Socet_util.Error.t) result
(** Open (creating if missing) a store rooted at the directory, bounded
    by [limit_bytes] (default 256 MiB, overridable via
    [SOCET_CACHE_LIMIT_MB]).  Fails with a structured [Validation]
    error — the CLI's documented exit code 3 — when the path exists but
    is not a directory, cannot be created, or is not writable. *)

val find : t -> ns:string -> key:string -> string option
(** The payload stored under (ns, key), or [None] on absence or any
    integrity failure.  A hit refreshes the entry's LRU position. *)

val store : t -> ns:string -> key:string -> string -> unit
(** Write an entry (atomically), then evict LRU entries while the store
    exceeds its byte limit.  I/O errors are swallowed: a cache that
    cannot write behaves like a cache that forgets. *)

val bytes_used : t -> int
(** Tracked total entry bytes (this process's view). *)
