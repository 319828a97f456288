(** Path-expression-to-relational-algebra compiler for the two relational
    stores (Systems A and B).

    The paper's Section 2 observes that on relational back-ends, "queries
    involving hierarchical structures in the form of complicated path
    expressions ... tend to require expensive join and aggregation
    operations", and Section 7 adds that translation from XQuery to a
    low-level algebra loses path information.  This module makes that
    concrete: an absolute path expression compiles to a left-deep chain
    of joins (one per child step, a transitive closure per descendant
    step, an attribute join per value predicate), with an EXPLAIN
    rendering in the store's own relations.

    On the edge model (System A) every step is a self-join of the single
    node relation.  On the fragmenting mapping (System B) a fully
    specified child step is a join against exactly one small relation —
    why fragmenting mappings handle precise lookups well — while a
    descendant step must probe the parent index of every relation in the
    catalog per closure level, and every relation lookup goes through
    the (linearly scanned) catalog, reproducing the metadata-heavy
    compilation of the paper's Table 2.

    Compiled plans must return exactly the nodes the navigational
    evaluator returns — a differential test asserts this for both
    stores. *)

exception Unsupported of string

type store = Heap of Backend_heap.t | Shredded of Backend_shredded.t

type plan

val compile : store -> Xmark_xquery.Ast.step list -> plan
(** Compile an absolute path (steps from the document node).  Supported:
    child and descendant axes with name or wildcard tests, and predicates
    of the form [\[@attr = "literal"\]].
    @raise Unsupported for anything else. *)

val compile_expr : store -> Xmark_xquery.Ast.expr -> plan option
(** [Some plan] when the expression is an absolute path in the supported
    fragment; [None] (rather than an exception) otherwise. *)

val execute : plan -> int list
(** Matching node identifiers in document order.  When
    {!Xmark_relational.Vec_ops} execution is enabled (the default), the
    plan runs batch-at-a-time on the store's id-algebra adapter —
    descendant closures become one-pass extent scans and named child
    steps join only their own tag's extent; with [--no-vec] it falls
    back to the scalar per-level index joins. *)

val join_count : plan -> int
(** Number of join operators in the plan — the paper's "complexity of the
    query plan" measure for path expressions. *)

val relations_touched : plan -> int
(** Number of relations the plan reads, once per join.  On System A each
    join reads one of its two relations, so this equals {!join_count};
    on System B a named step reads its tag's relation and a wildcard or
    descendant step reads the whole catalog — the fragmentation-cost
    measure. *)

val explain : plan -> string
(** Algebra rendering in the store's relations, innermost scan first. *)
