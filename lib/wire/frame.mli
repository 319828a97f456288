(** Length-prefixed binary framing — the unit of exchange on a wire
    connection.

    {b Layout} (all integers big-endian):

    {v
      offset  size  field
      0       4     magic "XMW\x01"
      4       1     format version (this build: 3)
      5       1     frame kind (1 = request, 2 = response)
      6       4     payload length N (<= max_payload)
      10      N     payload (see Wire_codec)
      10+N    4     CRC-32 of bytes [4, 10+N)  (version, kind, length,
                    payload — everything but the magic and the CRC
                    itself; same polynomial as the snapshot format)
    v}

    Decoding is a total function: any byte sequence yields either a
    frame or a typed {!error}, never an exception — hostile frames are
    a fuzz target ([xmark_fuzz --target wire]).  The length prefix is
    validated against {!max_payload} {e before} any allocation, so an
    adversarial length cannot balloon memory. *)

type kind = Request | Response

type error =
  | Closed  (** clean EOF at a frame boundary — the peer hung up *)
  | Bad_magic of string  (** first four bytes; not this protocol *)
  | Bad_version of int  (** framed for a protocol this build can't speak *)
  | Bad_kind of int  (** unknown frame kind byte *)
  | Oversized of int  (** declared payload length exceeds the cap *)
  | Truncated of string  (** EOF or end-of-buffer mid-frame *)
  | Bad_crc of { stored : int; computed : int }

val error_to_string : error -> string

val error_name : error -> string
(** Short stable label (["closed"], ["bad-magic"], ...) for histograms
    and corpus replay. *)

val header_len : int
(** Bytes before the payload (10). *)

val encode : kind -> string -> string
(** [encode kind payload] is the full frame, ready to write.
    @raise Invalid_argument if the payload exceeds {!max_payload}. *)

val decode : ?max_payload:int -> string -> (kind * string, error) result
(** Decode one frame from the head of a buffer; trailing bytes are
    ignored (the stream reader consumes exactly one frame's worth).
    The empty string is [Error Closed]. *)

val read : ?max_payload:int -> Unix.file_descr -> (kind * string, error) result
(** Blocking read of exactly one frame.  EOF before the first byte is
    [Error Closed]; EOF anywhere inside the frame is [Truncated].
    I/O failures ([Unix.Unix_error]) escape — connection-level errors
    are the caller's concern, byte-level hostility is handled here. *)

val write : Unix.file_descr -> kind -> string -> unit
(** Blocking write of one full frame.
    @raise Invalid_argument if the payload exceeds {!max_payload}.
    @raise Unix.Unix_error on I/O failure (e.g. [EPIPE]). *)
