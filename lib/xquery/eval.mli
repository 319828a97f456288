(** Query evaluator, parameterized by a storage backend.

    [Make (S)] yields an interpreter whose value model follows the XQuery
    draft the paper uses: sequences of items, where an item is a stored
    node, a constructed node, an attribute node, or an atomic (double,
    string, boolean).  All character data is untyped and cast at runtime,
    matching the experimental setup of Section 7 ("all character data ...
    were stored as strings and cast at runtime to richer data types
    whenever necessary").

    The evaluator exploits whatever accelerators the backend offers (ID
    index, tag extents, subtree intervals) and falls back to navigation
    otherwise, so architectural differences between backends surface as
    performance differences, not result differences. *)

module Make (S : Store_sig.S) : sig
  type attr = { aowner_order : int; aname : string; avalue : string }

  type item =
    | D  (** the document node above the document element *)
    | N of S.node  (** stored node *)
    | C of Xmark_xml.Dom.node  (** constructed node *)
    | A of attr  (** attribute node *)
    | Num of float
    | Str of string
    | Bool of bool

  type value = item list

  exception Runtime_error of string

  type compiled

  val compile : ?optimize:bool -> S.t -> Ast.query -> compiled
  (** Static preparation: binds user functions and resolves every element
      name in the query against the store's metadata (the catalog /
      meta-data access the paper's Table 2 measures as part of
      compilation).

      With [optimize] (default false), FLWOR bodies of the shape
      [for $v in SRC where KEY($v) = PROBE return ...] with variable-free
      [SRC] execute as build-once hash joins instead of nested loops — the
      hand-optimized plans the paper applied to the main-memory systems
      ("For Systems D through F we had to experiment with several
      hand-optimized execution plans").  The rewrite is semantics
      preserving: it only fires when every join key atomizes to an untyped
      string, where the general [=] means string equality. *)

  val explain_vec : compiled -> (string * string list) list
  (** The vectorized physical plans chosen for this query's absolute
      paths: [(rendered path, one line per step with operator, cost-model
      inputs and cardinality estimates)].  Empty when the backend has no
      id-algebra view ({!Store_sig.S.vec} = [None]) or no path qualified. *)

  val run : compiled -> value
  (** Execute.  @raise Runtime_error on dynamic errors (e.g. a path step
      applied to an atomic). *)

  val eval_string : ?optimize:bool -> S.t -> string -> value
  (** Parse, compile and run a query given as text. *)

  val string_of_item : S.t -> item -> string
  (** Atomized string form of one item. *)

  val result_to_dom : S.t -> value -> Xmark_xml.Dom.node list
  (** Materialize a result for serialization or cross-backend comparison:
      stored nodes are copied out, atomics become text nodes. *)

end
