(** The single writer: an update session, a WAL, and epoch
    publication.

    A writer owns the write path's {!Xmark_store.Updates.session},
    reconstructed from the base snapshot (plus WAL replay on reopen).
    Each {!commit} validates and applies one update, which derives the
    session's next immutable store from the current one by path copying
    — only the elements from the root to the change are new, everything
    else is shared — then appends the record to the log and fsyncs
    before acknowledging.  {!publish} hands the current store to the
    server as the next epoch without copying anything; in-flight readers
    keep the store they started with, which never changes, and that is
    the whole isolation story.

    Commit ordering: apply first, log second.  [Updates] validates
    completely before the session changes, so a rejected update touches
    neither session nor log; a crash between apply and fsync loses only
    an {e unacknowledged} commit (the client never saw an LSN).  If the
    disk write itself fails the session is ahead of the log and the
    writer poisons itself: every later commit is refused, because
    acknowledging anything after a lost write would break replay. *)

type t

type recovery_info = {
  fresh : bool;  (** no prior state existed; base snapshot was written *)
  replayed : int;  (** records re-applied from the log on reopen *)
  truncated_bytes : int;  (** torn-tail bytes dropped on reopen *)
}

val open_dir :
  ?level:Xmark_store.Backend_mainmem.level ->
  dir:string ->
  bootstrap:(unit -> Xmark_xml.Dom.node) ->
  unit ->
  t * recovery_info
(** Open (or initialize) the write state under [dir].  Fresh directory:
    [bootstrap ()] supplies the document, which is written to
    [dir/base.xms] (fsynced, with the directory) and {e read back} —
    the writer's session always starts from the
    decoded snapshot, so recovery replays onto byte-identical ground —
    then [dir/wal.log] is created bound to the base file's length and
    CRC.  Existing directory: the base is restored, the log is opened
    (header checked against the base file), any torn tail truncated and
    every intact record replayed.  [level] defaults to [`Full]
    (System D); it only applies to a fresh bootstrap — reopened state
    keeps serving the same document.
    @raise Xmark_persist.Page_io.Corrupt on a damaged base or log. *)

val commit : t -> Protocol.update -> (int * string option, Protocol.error) result
(** Validate, apply, append, fsync.  [Ok (lsn, assigned)] means the
    record is on disk; [assigned] is the identifier minted by
    [Register_person].  [Error (Rejected fault)] means nothing changed.
    [Error (Failed _)] after a disk failure — the writer is poisoned.
    Not thread-safe: the server serializes commits. *)

val publish : t -> Xmark_core.Runner.session
(** The current store as a query session.  Constant time: the store
    was derived by {!commit} and is never written again. *)

val last_lsn : t -> int
(** LSN of the last durable record; [0] for a fresh log.  Doubles as
    the epoch number of the store {!publish} would build. *)

val checkpoint : t -> (int, Protocol.error) result
(** Compact the write state: write the current tree (base plus every
    committed record) as a fresh base snapshot — temp file, fsync, an
    atomic rename over [base.xms], fsync of the directory — and restart
    the log empty, bound to the new base.  [Ok n] is the number of records folded away;
    {!last_lsn} is 0 afterwards and recovery replays nothing, yet the
    reopened state answers every query with the digests the
    pre-checkpoint state had.  A crash between the rename and the log
    restart leaves a base/log binding mismatch the next {!open_dir}
    refuses as the typed [Corrupt] — detection, never a wrong replay.
    On any I/O failure the writer poisons itself ([Error (Failed _)],
    like {!commit} after a lost write).  Not thread-safe: serialize
    with commits. *)

val write_targets : t -> int * int
(** [(n_auctions, n_persons)] id-space bounds for workload writes —
    {!Xmark_store.Updates.id_bounds}: one past the highest
    ["open_auction<i>"] suffix of the opened document and one past the
    highest ["person<i>"] suffix registered so far.  Constant time.
    Auctions closed earlier leave holes below the bound; a generator
    drawing from it simply collects some typed [Auction_closed]
    rejections, which a mixed workload expects. *)

val digest_of_session : Xmark_core.Runner.session -> int -> string
(** md5 hex of benchmark query [n]'s canonical answer on a session —
    the recovery check: replayed state must answer like the original. *)

val close : t -> unit
