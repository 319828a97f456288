(** Main-memory DOM backends — the paper's Systems D, E and F.

    The three systems share one physical representation (a pointer-based
    tree) and differ in their access paths, which is how the paper
    describes them: "Systems D to F are main-memory based and only come
    with heuristic optimizers", with System D additionally keeping "a
    detailed structural summary of the database" that makes the regular
    path expression queries Q6/Q7 "surprisingly fast".

    - [`Full] (System D): structural summary — per-tag extents with
      subtree intervals for index-assisted descendant steps — plus an ID
      index and a lazily-built per-tag keyword index serving
      [keyword_search] (the full-text access path of Section 6.9).
    - [`Id_only] (System E): ID index, no structural summary.
    - [`Plain] (System F): pure navigation. *)

type level = [ `Full | `Id_only | `Plain ]

include Xmark_xquery.Store_sig.S with type node = Xmark_xml.Dom.node

val create : ?id_index:bool -> level:level -> Xmark_xml.Dom.node -> t
(** Load a parsed document.  The DOM must be document-order indexed
    (which {!Xmark_xml.Sax.parse_dom} guarantees); index construction cost
    is part of bulkload, as in Table 1.  [id_index] (default: any level
    but [`Plain]) builds the ID index even for System F, whose
    {!id_lookup} still answers [None]: the write path finds entities
    through {!find_id} on every level. *)

val of_string : level:level -> string -> t
(** Parse and load. *)

val level : t -> level

val dom_root : t -> Xmark_xml.Dom.node

(** {1 Epochs}

    The write path ({!Updates}) never writes a node a store can reach.
    An update builds new versions of the elements on the path from the
    root to the change and shares every other subtree with the previous
    store; {!derive} turns that change into the next store in time
    proportional to the change.  A version keeps its predecessor's
    order, and an inserted subtree is numbered from the gap a
    {!Xmark_xml.Dom.index} stride leaves, so document order, subtree
    intervals and extents stay exact without renumbering.  Both stores
    stay valid: readers pinned to the previous one see it unchanged. *)

type change = {
  new_root : Xmark_xml.Dom.node;  (** the next store's root *)
  replaced : (Xmark_xml.Dom.node * Xmark_xml.Dom.node) list;
      (** [(old, new)] element versions; each pair shares one order *)
  added : Xmark_xml.Dom.node list;  (** roots of inserted, numbered subtrees *)
  removed : Xmark_xml.Dom.node list;
      (** roots of subtrees the next store drops, as this store holds them *)
}

val derive : t -> change -> t
(** The next store: this one's ID index, extents, node and byte counts
    with the change applied, and its lazily built extents and keyword
    indexes carried over for every tag the change leaves alone.  A
    touched tag whose extent a reader merged takes that list as its new
    base, so the changes a merge walks are only those since the last
    merge. *)

val find_id : t -> string -> node option
(** The element carrying an id, on every level (see [id_index]); no
    statistics are recorded.  [None] without an ID index. *)
