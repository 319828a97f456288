(** System G: the embedded query processor.

    The paper's second platform category: "query processors that are
    intended to serve as embedded query processors in programming
    languages and aim at small to medium sized documents" (Section 7).
    There is no database: the document is kept in its serialized form and
    parsed again for every query execution, which is what gives Figure 4
    its flat, size-dominated profile — on the small document "no query
    took longer than 5 seconds but none was faster than 2.5 seconds".

    A session wraps the document text; each {!session} call re-parses and
    yields a plain navigational store (no indexes, like System F), whose
    lifetime is one query. *)

type t

val load : string -> t
(** Keep the serialized document; cheap ("bulkload" for an embedded
    processor is nothing but retaining the input). *)

val document : t -> string

val bytes : t -> int

val session : t -> Backend_mainmem.t
(** Parse the document and return a store valid for one query execution.
    The parse is intentional per-call work: it is System G's constant
    overhead. *)
