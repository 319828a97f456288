(** B+-tree secondary index with range scans.

    The hash indexes of {!Index} serve equality probes (reference chasing,
    ID lookup); range predicates — Q5's [price >= 40], Q12's
    [income > 50000] — want an ordered structure.  This is a classic
    in-memory B+-tree: values live in linked leaves, so a range scan is a
    descent plus a leaf walk.  Duplicate keys are allowed and preserve
    insertion order, which for the XML mappings is document order. *)

type t

val create : ?branching:int -> unit -> t
(** [branching] is the maximum number of children of an internal node
    (default 32; minimum 4). *)

val insert : t -> Value.t -> int -> unit
(** Add a (key, row-id) pair. *)

val build : ?branching:int -> Table.t -> string -> t
(** Index an existing column, in row order. *)

val lookup : t -> Value.t -> int list
(** Row ids with exactly this key, in insertion order. *)

val range :
  ?lower:Value.t * bool -> ?upper:Value.t * bool -> t -> int list
(** Row ids with keys in the given interval, in key order (insertion order
    within equal keys).  The boolean selects inclusiveness.  Omitted
    bounds are infinite. *)

val iter : (Value.t -> int -> unit) -> t -> unit
(** All entries in key order. *)

val cardinality : t -> int
(** Number of entries. *)

val depth : t -> int
(** Height of the tree (1 = a single leaf). *)

val min_key : t -> Value.t option

val max_key : t -> Value.t option
