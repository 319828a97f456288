(** The service's request/response vocabulary — one shared surface for
    in-process callers, the wire protocol, and the CLIs.

    Before this module, each layer spelled the API its own way:
    {!Server} had [submit] (by number) and [submit_text] (by text) with
    a private error variant, the workload driver matched on it
    structurally, and every binary mapped errors to exit codes with its
    own [with] clause.  [Protocol] collapses that into one request type
    (query by number, by text, or a typed update), one result per shape
    (a {!reply} for reads, a {!commit} for writes), and one error
    variant with {e stable numeric codes} — the same numbers appear in
    {!status_code} (the wire status byte), {!error_to_string}
    diagnostics, and the CLI exit-code contract via {!exit_code}.

    Status codes are append-only: new failure modes get new numbers;
    existing numbers never change meaning.

    {t
      | code | variant       | meaning                                   |
      |------|---------------|-------------------------------------------|
      | 0    | (Ok outcome)  | query executed / update committed         |
      | 1    | [Failed]      | evaluation/data error; the server survives|
      | 2    | [Bad_request] | malformed request or protocol misuse      |
      | 3    | [Unsupported] | store can't run this form (e.g. C + text) |
      | 4    | [Overloaded]  | admission control shed the request        |
      | 5    | [Timeout]     | deadline exceeded, execution aborted      |
      | 6    | [Unavailable] | transport/worker failure, answer unknown  |
      | 7    | [Rejected]    | update refused by a typed integrity check |
      | 8    | [Read_only]   | update sent to a server without a WAL     |
      | 9    | [Wrong_shard] | shard-scoped request routed to the wrong worker |
      | 10   | [Not_sharded] | shard-scoped request sent to an unsharded server |
    } *)

type update =
  | Register_person of { name : string; email : string }
  | Place_bid of {
      auction : string;
      person : string;
      increase : float;
      date : string;
      time : string;
    }
  | Close_auction of { auction : string; date : string }
      (** The auction site's three write operations —
          {!Xmark_store.Updates} as wire-able values. *)

type query =
  | Benchmark of int  (** benchmark query 1-20 *)
  | Text of string  (** ad-hoc XQuery text *)
  | Update of update  (** a write, durably committed before the reply *)
  | Partial of { shard : int; op : Xmark_core.Merge.op }
      (** one scatter-gather fan-out leg: run this merge-plan op on the
          worker serving shard [shard] and return the per-item canonical
          payload (a {!partial}) instead of just a digest — the
          coordinator needs the items themselves to gather *)

type request = {
  query : query;
  deadline_ms : float option;
      (** per-request budget (queue + execute); [None] defers to the
          server's configured deadline *)
  client : string;  (** caller tag, for logs and traces; may be [""] *)
}

val request : ?deadline_ms:float -> ?client:string -> query -> request
(** Build a request; [client] defaults to [""]. *)

type reply = {
  items : int;  (** result cardinality *)
  digest : string;  (** md5 hex of the canonical result *)
  epoch : int;
      (** the store epoch (= WAL LSN of its last commit; 0 before any
          write) this answer was computed against — answers for the same
          query at the same epoch are identical *)
  latency_ms : float;  (** server-side admission + queue + execution *)
  queue_ms : float;  (** part of [latency_ms] spent waiting for a slot *)
  plan_hit : bool;  (** plan came from the prepared-plan cache *)
}

type commit = {
  lsn : int;  (** the update's log sequence number; fsynced to disk *)
  epoch : int;  (** the epoch the commit published (= [lsn]) *)
  assigned : string option;
      (** identifier minted by the update ([register_person]) *)
  latency_ms : float;  (** admission + queue + apply + fsync + publish *)
  queue_ms : float;
}

type partial = {
  shard : int;  (** the shard this partial answer covers *)
  payload : string list;
      (** per-item canonical strings ({!Xmark_xml.Canonical.of_node} of
          each result item, in document order) — the gather step's input *)
  epoch : int;
  latency_ms : float;
  queue_ms : float;
  plan_hit : bool;
}

type outcome =
  | Reply of reply  (** a read produced an answer *)
  | Committed of commit  (** a write is durable and published *)
  | Partial_reply of partial  (** one shard's slice of a scattered query *)

type write_fault =
  | Unknown_auction of string
  | Unknown_person of string
  | Auction_closed of string
  | No_bids of string
  | Missing_section of string
  | Invalid_update of string
      (** {!Xmark_store.Updates.fault} as a wire-able value: typed
          integrity rejections with stable meaning across versions. *)

type error =
  | Failed of string  (** code 1: evaluation error; the server survives *)
  | Bad_request of string
      (** code 2: out-of-range query number, malformed frame, protocol
          misuse — the request never reached execution *)
  | Unsupported of string  (** code 3: e.g. ad-hoc text on System C *)
  | Overloaded of { inflight : int; queued : int }
      (** code 4: rejected at admission; the payload is the load observed *)
  | Timeout of { elapsed_ms : float }  (** code 5: deadline exceeded *)
  | Unavailable of string
      (** code 6: the transport or a fleet worker failed before an
          answer was produced — retrying may succeed *)
  | Rejected of write_fault
      (** code 7: the update failed a typed integrity check; nothing was
          written, the store is unchanged *)
  | Read_only of string
      (** code 8: this server has no write path (no [--wal]); fleet
          workers are always read-only *)
  | Wrong_shard of { served : int; requested : int }
      (** code 9: a shard-scoped request reached a worker serving a
          different shard — a routing bug; no partial answer is returned *)
  | Not_sharded of string
      (** code 10: a shard-scoped request reached a server with no shard
          scope (started without [--shards]) *)

type response = (outcome, error) result

val status_code : error -> int
(** The stable numeric code (1-10); [0] is reserved for [Ok]. *)

val status_of_response : response -> int

val status_name : int -> string
(** ["ok"], ["failed"], ["bad-request"], ... — ["unknown"] for numbers
    this build does not define. *)

val error_to_string : error -> string
(** One line, prefixed with the stable code: ["error 5: timeout after
    3.2 ms"]. *)

val describe_update : update -> string
(** One-line human description, for logs and traces. *)
