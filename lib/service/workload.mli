(** Closed-loop multi-client workload driver, over any transport.

    [run_transport] creates [clients] client fibers, each submitting
    [requests/clients] operations back-to-back through its own
    connection, drawing from a weighted [mix] of operation classes —
    benchmark queries Q1-Q20 and the three auction-site writes — with a
    per-client deterministic PRNG stream (split from one base seed, so
    workloads replay exactly).  A {!transport} is a connection factory:
    {!local} wraps an in-process {!Server} (a call is a function call);
    [Xmark_wire.Client.transport] dials a socket, so the same mixes,
    latency histograms and cross-client digest gate measure the path
    end-to-end over real connections — latencies are clocked on the
    client side, around the whole call.
    Fibers are multiplexed round-robin over at most
    [Domain.recommended_domain_count ()] runner domains — parallelism is
    sized to the hardware, concurrency to [clients]; oversubscribing a
    small machine with one domain per client only buys minor-GC
    synchronization stalls.  Every successful reply lands in a
    per-class log-bucketed latency histogram
    ({!Xmark_core.Timing.Histogram}); reads and writes are reported
    separately, since a commit (fsync + publish) and a cached lookup
    live on different latency scales.

    {b The digest gate under writes.}  The store changes mid-run, so
    "same query, same answer" holds {e per epoch}: every reply carries
    the epoch it was computed against, and the gate demands that two
    replies for the same query at the same epoch have the same digest —
    across all clients and domains.  A mismatch means a reader observed
    a torn store, which is exactly what snapshot isolation forbids.

    Closed loop: a client submits its next request only after the
    previous reply, so offered load adapts to service rate and req/s is
    the measurement.  Total requests are held constant across client
    counts, which is what makes a scaling curve comparable. *)

type conn = {
  call : Protocol.request -> Protocol.response;
      (** one request/response exchange; must be typed-total (errors as
          [Error _], never an exception) *)
  close : unit -> unit;
}
(** One client connection.  A [conn] is single-occupancy: exactly one
    strand calls it, from one domain at a time. *)

type transport = unit -> conn
(** Connection factory, called once per client strand on the runner
    domain that will use the connection. *)

type op_class =
  | Query of int  (** benchmark query 1-20 *)
  | Bid  (** place_bid on a random open auction *)
  | Register  (** register_person with a generated name *)
  | Close  (** close_auction on a random auction *)

val class_label : op_class -> string
(** ["Q7"], ["BID"], ["REG"], ["CLOSE"]. *)

type mix = (op_class * int) list
(** (operation class, positive weight). *)

val uniform_mix : mix
(** Q1-Q20, weight 1 each — read-only. *)

val mixed_mix : mix
(** Auction browsing under a bid storm: the interactive read profile
    plus [Bid] (heavy), [Register] and the occasional [Close] —
    roughly 1 write in 3 operations. *)

val has_writes : mix -> bool

val mix_of_string : string -> mix
(** ["uniform"], ["interactive"], ["mixed"], or explicit
    ["1:5,8:2,bid:3,close"] (query number or [bid]/[register]/[close],
    weight defaults to 1).  @raise Failure on a malformed spec. *)

val mix_to_string : mix -> string

type class_stats = {
  cs_class : op_class;
  mutable cs_count : int;
  mutable cs_ok : int;  (** replies (reads) or commits (writes) *)
  mutable cs_timeouts : int;
  mutable cs_rejected : int;  (** shed at admission (Overloaded) *)
  mutable cs_conflicts : int;
      (** typed write rejections (Rejected) — e.g. bidding on an auction
          another client already closed; expected under a mixed load *)
  mutable cs_failed : int;
  cs_digests : (int, string) Hashtbl.t;
      (** epoch -> first digest seen at that epoch (query classes) *)
  mutable cs_digest_mismatches : int;
  cs_hist : Xmark_core.Timing.Histogram.t;
}

type report = {
  r_clients : int;
  r_requests : int;
  r_ok : int;  (** successful read replies *)
  r_committed : int;  (** durable commits *)
  r_timeouts : int;
  r_rejected : int;
  r_conflicts : int;
  r_failed : int;
  r_elapsed_s : float;
  r_rps : float;  (** successful operations (reads + writes) per second *)
  r_hist : Xmark_core.Timing.Histogram.t;  (** read latencies *)
  r_whist : Xmark_core.Timing.Histogram.t;  (** write (commit) latencies *)
  r_classes : class_stats list;  (** classes the mix exercised *)
  r_digest_mismatches : int;
      (** must be 0: same query at the same epoch, same answer *)
}

val run_transport :
  ?seed:int64 ->
  ?domains:int ->
  ?write_targets:int * int ->
  clients:int ->
  requests:int ->
  mix:mix ->
  transport ->
  report
(** Drive the service behind [transport] and block until all clients
    finish.  [domains] overrides the runner-domain count (clamped to
    [1 .. clients]); 0 or absent sizes it to
    [min clients (Domain.recommended_domain_count ())].
    [write_targets = (n_auctions, n_persons)] is the id space writes
    draw from (["open_auction<i>"], ["person<i>"] with [i] below the
    bound) — required when the mix contains write classes.  Each
    strand's connection is dialed lazily on its runner domain and
    closed when its budget is spent (or the loop unwinds).
    Runner-domain {!Xmark_stats} deltas are absorbed into the caller's
    registry.
    @raise Invalid_argument on [clients < 1], negative [requests], a
    malformed mix, or a write mix without [write_targets]. *)

val run :
  ?seed:int64 ->
  ?domains:int ->
  ?write_targets:int * int ->
  clients:int ->
  requests:int ->
  mix:mix ->
  Server.t ->
  report
(** [run_transport] over {!local} — the in-process spelling. *)

val pp_report : Format.formatter -> report -> unit
