(** LRU buffer pool over the pages of a snapshot file.

    Every page access goes through the pool: a hit returns the cached,
    already-verified page; a miss reads the page from disk, checks its
    trailer CRC, and caches it, evicting the least recently used page
    when the pool is at capacity.  Hit/miss/eviction counts register as
    [pager_hits] / [pager_misses] / [pager_evictions] in {!Xmark_stats}
    (so [--explain] and [--stats-json] expose cache behaviour) and are
    also kept locally so tests can observe them with statistics
    disabled.

    Thread-safe: one lock serializes lookup, disk read and eviction, so
    any number of domains may read through the same pager concurrently.
    Page bytes are immutable once returned — a caller may keep using a
    page after it has been evicted from the pool. *)

type t

val open_file : ?capacity:int -> string -> t
(** Open a snapshot file for paged reads.
    @raise Page_io.Corrupt when the file is empty or its length is not a
    whole number of pages (a truncated snapshot).
    @raise Sys_error on I/O failure. *)

val close : t -> unit

val page_count : t -> int

val page : t -> int -> bytes
(** The page's bytes ({!Page_io.page_size} of them), trailer-verified.
    The returned buffer belongs to the cache — treat it as read-only.
    @raise Page_io.Corrupt for an out-of-range page number, a short
    read, or a trailer mismatch. *)

val read_blob : t -> first_page:int -> byte_len:int -> string
(** Concatenate the payloads of the contiguous run starting at
    [first_page] up to [byte_len] bytes — how section contents and the
    header blob are read. *)

val stats : t -> int * int * int
(** [(hits, misses, evictions)] since {!open_file}. *)

val cached : t -> int list
(** Cached page numbers, most recently used first (test hook for the
    eviction order). *)
