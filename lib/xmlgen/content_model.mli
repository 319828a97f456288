(** Structured form of the benchmark DTD.

    The single source of truth for the document grammar: {!Validator}
    checks instances against it, {!Xsd} renders it as W3C XML Schema, and
    {!Dtd} carries the same declarations in DTD syntax. *)

type regexp =
  | El of string
  | Seq of regexp list
  | Alt of regexp list
  | Opt of regexp
  | Star of regexp
  | Plus of regexp

type content =
  | Children of regexp  (** element content; no character data *)
  | Mixed of string list  (** [(#PCDATA | a | b)*] *)
  | Pcdata  (** [(#PCDATA)] *)
  | Empty

type attr_decl = { aname : string; required : bool; is_id : bool; is_idref : bool }

val elements : (string * content) list
(** Content model of every declared element. *)

val attributes : (string * attr_decl list) list
(** Attribute declarations per element (elements with none are absent). *)
