(** Typed update records — the unit of durability.

    One record per committed mutation, in the vocabulary of
    {!Xmark_store.Updates}: the auction site's three write operations.
    Records are encoded with the snapshot {!Xmark_persist.Codec}
    primitives, so integers and floats round-trip exactly and every
    decode failure surfaces as the same typed
    {!Xmark_persist.Page_io.Corrupt} the snapshot reader uses. *)

type op =
  | Register_person of { name : string; email : string }
  | Place_bid of {
      auction : string;
      person : string;
      increase : float;
      date : string;
      time : string;
    }
  | Close_auction of { auction : string; date : string }

type t = { lsn : int; op : op }
(** Log sequence numbers start at 1 and increase by exactly 1 per
    record; a gap in a decoded stream is corruption, not truncation. *)

val encode : Buffer.t -> t -> unit
(** Append the record payload (i64 lsn, u8 kind, fields) to a buffer.
    Framing (length + CRC) is the log's business, not the record's. *)

val decode_string : string -> t
(** [decode] over a whole string (one framed payload). *)

val apply : Xmark_store.Updates.session -> op -> string option
(** Apply the operation to a session.  Returns the assigned identifier
    for [Register_person] (deterministic: it derives from the tree
    state, so replay regenerates the same ids), [None] otherwise.
    @raise Xmark_store.Updates.Update_error exactly when the original
    commit would have been rejected. *)

val describe : op -> string
(** One-line human description, for logs and fuzz reports. *)
