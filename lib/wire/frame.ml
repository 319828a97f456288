(* Length-prefixed frames: magic + version + kind + length + payload +
   CRC-32 (the snapshot format's checksum, over everything but the magic
   and the CRC itself).  Decoding is total — typed errors, never
   exceptions, and the length prefix is vetted before allocation. *)

module Crc32 = Xmark_persist.Crc32

type kind = Request | Response

type error =
  | Closed
  | Bad_magic of string
  | Bad_version of int
  | Bad_kind of int
  | Oversized of int
  | Truncated of string
  | Bad_crc of { stored : int; computed : int }

let error_name = function
  | Closed -> "closed"
  | Bad_magic _ -> "bad-magic"
  | Bad_version _ -> "bad-version"
  | Bad_kind _ -> "bad-kind"
  | Oversized _ -> "oversized"
  | Truncated _ -> "truncated"
  | Bad_crc _ -> "bad-crc"

let error_to_string = function
  | Closed -> "connection closed"
  | Bad_magic m ->
      Printf.sprintf "bad magic %S — not an xmark wire frame" (String.escaped m)
  | Bad_version v -> Printf.sprintf "unsupported wire protocol version %d" v
  | Bad_kind k -> Printf.sprintf "unknown frame kind %d" k
  | Oversized n -> Printf.sprintf "declared payload of %d bytes exceeds the cap" n
  | Truncated what -> Printf.sprintf "truncated frame (%s)" what
  | Bad_crc { stored; computed } ->
      Printf.sprintf "frame checksum mismatch (stored %08x, computed %08x)"
        stored computed

let magic = "XMW\x01"

(* Bumped 1 → 2 when the payload vocabulary grew writes: requests
   gained the Update tag and Ok responses an outcome-kind byte and an
   epoch field.  Bumped 2 → 3 when it grew sharding: the Partial
   request tag, the Partial_reply outcome kind and status codes 9/10.
   An old-version peer gets a clean [Bad_version] instead of a
   confusing payload decode error mid-exchange. *)
let version = 3

(* far above any legitimate request or response, far below a
   length-prefix memory bomb *)
let max_payload = 16 * 1024 * 1024
let header_len = 10

let kind_byte = function Request -> 1 | Response -> 2
let kind_of_byte = function 1 -> Some Request | 2 -> Some Response | _ -> None

let encode kind payload =
  let n = String.length payload in
  if n > max_payload then
    invalid_arg (Printf.sprintf "Frame.encode: %d-byte payload exceeds cap" n);
  let b = Bytes.create (header_len + n + 4) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint8 b 4 version;
  Bytes.set_uint8 b 5 (kind_byte kind);
  Bytes.set_int32_be b 6 (Int32.of_int n);
  Bytes.blit_string payload 0 b header_len n;
  let body = Bytes.sub_string b 4 (6 + n) in
  Bytes.set_int32_be b (header_len + n) (Int32.of_int (Crc32.digest body));
  Bytes.to_string b

(* Shared by the string and fd decoders: validate the header, returning
   the payload length still to be read. *)
let check_header ~max_payload hdr =
  let m = String.sub hdr 0 4 in
  if m <> magic then Error (Bad_magic m)
  else
    let v = Char.code hdr.[4] in
    if v <> version then Error (Bad_version v)
    else
      match kind_of_byte (Char.code hdr.[5]) with
      | None -> Error (Bad_kind (Char.code hdr.[5]))
      | Some kind ->
          let n = Int32.to_int (String.get_int32_be hdr 6) land 0xffffffff in
          if n > max_payload then Error (Oversized n) else Ok (kind, n)

let check_crc ~hdr ~payload ~stored =
  (* CRC covers bytes [4, 10+N): version, kind, length, payload *)
  let computed =
    Crc32.update (Crc32.digest_sub hdr 4 6) payload 0 (String.length payload)
  in
  if stored <> computed then Error (Bad_crc { stored; computed }) else Ok ()

let decode ?(max_payload = max_payload) s =
  let len = String.length s in
  if len = 0 then Error Closed
  else if len < header_len then Error (Truncated "header")
  else
    match check_header ~max_payload (String.sub s 0 header_len) with
    | Error e -> Error e
    | Ok (kind, n) ->
        if len < header_len + n + 4 then Error (Truncated "payload")
        else
          let payload = String.sub s header_len n in
          let stored =
            Int32.to_int (String.get_int32_be s (header_len + n))
            land 0xffffffff
          in
          Result.map
            (fun () -> (kind, payload))
            (check_crc ~hdr:(String.sub s 0 header_len) ~payload ~stored)

(* Read exactly [n] bytes; [`Eof got] if the stream ends first.  A read
   returning 0 on a blocking socket means the peer closed. *)
let really_read fd n =
  let b = Bytes.create n in
  let rec go off =
    if off = n then `Ok (Bytes.to_string b)
    else
      match Unix.read fd b off (n - off) with
      | 0 -> `Eof off
      | k -> go (off + k)
  in
  go 0

let read ?(max_payload = max_payload) fd =
  match really_read fd header_len with
  | `Eof 0 -> Error Closed
  | `Eof _ -> Error (Truncated "header")
  | `Ok hdr -> (
      match check_header ~max_payload hdr with
      | Error e -> Error e
      | Ok (kind, n) -> (
          match really_read fd (n + 4) with
          | `Eof _ -> Error (Truncated "payload")
          | `Ok rest ->
              let payload = String.sub rest 0 n in
              let stored =
                Int32.to_int (String.get_int32_be rest n) land 0xffffffff
              in
              Result.map
                (fun () -> (kind, payload))
                (check_crc ~hdr ~payload ~stored)))

let write fd kind payload =
  let frame = encode kind payload in
  let b = Bytes.unsafe_of_string frame in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0
