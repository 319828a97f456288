(** The benchmark document generator — xmlgen (paper, Section 4.5).

    Properties reproduced from the paper's requirement list:
    platform-independent determinism (own PRNG, {!Xmark_prng.Prng}),
    accurate linear scaling (entity populations from {!Profile}),
    time/space efficiency (single pass, streaming into a {!Sink}, no
    per-entity state) and referential consistency (every item referenced by
    exactly one auction, via a keyed permutation instead of xmlgen's
    replayed random streams).

    The default factor-to-size calibration matches Figure 3: factor 1.0
    produces slightly more than 100 MB. *)

val default_seed : int64

val to_string : ?seed:int64 -> factor:float -> unit -> string

val to_file : ?seed:int64 -> ?dtd:bool -> factor:float -> string -> unit
(** Write the document to a file, preceded by the DOCTYPE when [dtd]. *)

val to_dom : ?seed:int64 -> factor:float -> unit -> Xmark_xml.Dom.node
(** Generate directly into a DOM, skipping serialization and parsing. *)

val measure : ?seed:int64 -> factor:float -> unit -> int * int
(** [(serialized_bytes, element_count)] of the document, computed without
    materializing it. *)

val to_split_files :
  ?seed:int64 -> factor:float -> dir:string -> per_file:int -> unit -> Sink.split_info
(** Section 5's work-around mode: [per_file] entities per file. *)
