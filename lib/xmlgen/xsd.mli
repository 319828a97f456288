(** XML Schema for the benchmark document.

    The paper provides "a DTD and schema information ... to allow for more
    efficient mappings" (Section 4.4) — XML Schema activities "try to
    allay some of these challenges by making data-centric documents more
    accessible for (O)RDBMS" (Section 2).  This module renders the
    benchmark's content models ({!Content_model}) as a W3C XML Schema
    document: the second half of that provided schema information. *)

val text : unit -> string
(** Serialized schema. *)
