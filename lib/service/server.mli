(** Concurrent query server over an epoch of immutable stores.

    A server owns a {e current} epoch — an immutable
    {!Xmark_core.Runner.session} plus its prepared-plan cache — and
    serves it to any number of client domains: {!handle} is thread-safe
    and blocks only in the bounded admission queue.  Request bodies are
    dispatched onto the {!Xmark_parallel} domain pool as futures —
    awaiting clients help drain the pool queue, so a pool of N workers
    serving M clients yields up to [N + M]-way execution.  Without a
    pool, bodies run inline on the calling domain (still concurrent
    across clients).

    {b Writes and isolation.}  A server created with
    {!create_writable} owns a {!Writer}: updates are serialized through
    a write lock, committed to the WAL (apply + append + fsync), and
    then {e published} — the writer builds a fresh immutable session
    and the server installs it atomically as the next epoch, with a
    fresh plan cache (prepared plans are store-bound).  A read grabs
    the current epoch once at dispatch and uses that session and cache
    for its whole execution, so in-flight readers never observe a
    partially applied mutation — they answer from the epoch they
    started in, and every reply says which ({!Protocol.reply.epoch}).
    Read-only servers refuse updates with the typed
    {!Protocol.error.Read_only}.

    Admission control: at most [max_inflight] requests execute at once;
    up to [queue_depth] more wait; beyond that {!handle} returns
    [Overloaded] immediately — typed backpressure, never an unbounded
    queue.  Writes share the same admission gate.

    Deadlines: [deadline_ms] bounds queue wait plus execution.  Late
    reads are aborted cooperatively via {!Xmark_xquery.Cancel} polls in
    Eval's iteration loops and return [Timeout].  A write checks its
    deadline after queueing but before touching the WAL — a commit,
    once started, always runs to completion (fsync is not abortable),
    so a write either times out untouched or commits fully. *)

type config = {
  max_inflight : int;  (** concurrent executions; clamped to >= 1 *)
  queue_depth : int;  (** waiting requests beyond inflight; >= 0 *)
  deadline_ms : float option;  (** per-request budget, queue + execute *)
  plan_cache : int;  (** idle prepared plans kept per epoch (0 disables) *)
}

val default_config : config
(** 4 in flight, 64 queued, no deadline, 64 cached plans. *)

type error = Protocol.error =
  | Failed of string
  | Bad_request of string
  | Unsupported of string
  | Overloaded of { inflight : int; queued : int }
  | Timeout of { elapsed_ms : float }
  | Unavailable of string
  | Rejected of Protocol.write_fault
  | Read_only of string
  | Wrong_shard of { served : int; requested : int }
  | Not_sharded of string
(** Re-exported {!Protocol.error} — see there for the stable numeric
    codes.  [Unavailable] is produced by transports (a fleet front door
    whose worker died), never by this in-process server. *)

type reply = Protocol.reply = {
  items : int;
  digest : string;  (** md5 hex of the canonical result *)
  epoch : int;  (** the store epoch this answer was computed against *)
  latency_ms : float;  (** wall time from submission to reply *)
  queue_ms : float;  (** part of [latency_ms] spent waiting for a slot *)
  plan_hit : bool;  (** plan came from the cache *)
}

type totals = {
  served : int;  (** reads answered (status 0, [Reply]) *)
  committed : int;  (** writes committed (status 0, [Committed]) *)
  rejected : int;  (** shed at admission (status 4) *)
  write_rejected : int;  (** typed integrity rejections (status 7) *)
  timed_out : int;
  failed : int;
  plan_hits : int;  (** across all epochs' caches *)
  plan_misses : int;
  plan_evictions : int;
}

type t

val create :
  ?pool:Xmark_parallel.pool ->
  ?shard:int ->
  ?config:config ->
  Xmark_core.Runner.session ->
  t
(** A read-only server (epoch 0, no writer): updates get [Read_only].
    The server borrows [pool] (caller shuts it down) and shares the
    session's store across domains — stores are immutable on the query
    path, which is what makes this safe.

    [?shard] gives the server a {e shard scope}: its session holds
    shard [n] of a partitioned store, and it accepts
    {!Protocol.query.Partial} requests for exactly that shard, answered
    with a {!Protocol.outcome.Partial_reply} carrying the per-item
    canonical payload.  Partial requests for another shard get the
    typed [Wrong_shard]; without a scope they get [Not_sharded].
    Benchmark/text requests still work and answer over the shard's
    slice alone. *)

val create_writable :
  ?pool:Xmark_parallel.pool -> ?config:config -> Writer.t -> t
(** A server whose epoch 0..n come from [writer] (initial epoch =
    [Writer.last_lsn], so a recovered server resumes its numbering).
    The server takes over commit serialization; the caller must not
    call {!Writer.commit} concurrently, but still owns closing it. *)

val session : t -> Xmark_core.Runner.session
(** The current epoch's session (for digest references and stats). *)

val epoch : t -> int
(** The current epoch number (= WAL LSN of the last published commit). *)

val shard : t -> int option
(** The server's shard scope, when created with [?shard]. *)

val writable : t -> bool

val handle : t -> Protocol.request -> Protocol.response
(** The entry point: execute one typed request.  Thread-safe; blocks at
    most while queued for an execution slot (reads) or for the write
    lock (writes).  A request's [deadline_ms] overrides the server-wide
    deadline for this request only; [None] defers to the server config.
    Out-of-range benchmark numbers are refused as [Bad_request] before
    admission; malformed query text is a typed [Failed]/[Unsupported]
    result, never an exception.  This is what the wire server calls for
    every decoded frame — in-process callers and remote clients get
    identical semantics. *)

val totals : t -> totals
(** Lifetime counters.  Request counters are exact; the plan-cache
    counters sum the current epoch's cache with those of retired
    epochs, folded at each epoch swap — events from readers still
    pinned to an epoch after it retires are dropped, so under
    concurrent writes the plan totals are a close one-sided
    approximation (never a double-count). *)

val error_to_string : error -> string
