(** Update operations — the paper's declared future work.

    Section 8: "Important parts of a complete application scenario are
    still missing: update specifications, for which a W3C standard has
    yet to be defined, are the most prominent one."  This module supplies
    the auction site's natural write operations on top of the main-memory
    backend.

    Updates are non-destructive.  A session holds the current
    {!Backend_mainmem.t}; each operation builds new versions of the
    elements on the path from the document root to the change (site,
    section, entity), shares every other subtree with the current store,
    and derives the next store from it ({!Backend_mainmem.derive}).  The
    work is proportional to the update, not to the document, and a store
    handed out earlier never changes: it is an immutable epoch.

    All operations preserve the benchmark's integrity invariants: typed
    references keep resolving, identifiers stay unique, and an open
    auction's [current] price stays equal to [initial] plus the sum of its
    bid increases.

    Operations validate their inputs completely before the session
    changes: a raised [Update_error] guarantees the session still holds
    the same store, which is what lets the service treat every update as
    atomic. *)

type session

type fault =
  | Unknown_auction of string  (** no open auction carries this id *)
  | Unknown_person of string  (** no person carries this id *)
  | Auction_closed of string  (** the auction was already closed in this session *)
  | No_bids of string  (** close_auction on an auction without bids *)
  | Missing_section of string  (** the document lacks a required top-level section *)
  | Invalid of string  (** anything else: bad argument, malformed document *)

exception Update_error of fault

val fault_to_string : fault -> string

val open_session : ?level:Backend_mainmem.level -> Xmark_xml.Dom.node -> session
(** Take ownership of a document tree.  [level] defaults to [`Full].  The
    tree is renumbered in document order with gaps between nodes, which
    inserted subtrees take their orders from. *)

val of_string : ?level:Backend_mainmem.level -> string -> session

val store : session -> Backend_mainmem.t
(** The current epoch.  Later updates leave it unchanged. *)

val root : session -> Xmark_xml.Dom.node
(** The current epoch's document root. *)

val level : session -> Backend_mainmem.level

val id_bounds : session -> int * int
(** [(n_auctions, n_persons)]: one past the highest ["open_auction<i>"]
    suffix of the opened document and one past the highest
    ["person<i>"] suffix registered so far.  Both are high-water marks,
    kept without a scan; closing an auction leaves a hole below the
    first. *)

val register_person : session -> name:string -> email:string -> string
(** Add a person; returns the fresh identifier (["person<n>"]).
    @raise Update_error if the people section is missing. *)

val place_bid :
  session -> auction:string -> person:string -> increase:float -> date:string -> time:string -> unit
(** Append a bid to an open auction and update its [current] price.
    @raise Update_error for an unknown auction or person. *)

val close_auction : session -> auction:string -> date:string -> unit
(** Move an open auction to the closed section: the highest bidder becomes
    the buyer, [current] becomes [price], bid history is dropped — the
    document's own schema for closed auctions.
    @raise Update_error for an unknown auction or one without bids. *)
