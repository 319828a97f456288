module Codec = Xmark_persist.Codec
module Page_io = Xmark_persist.Page_io
module Updates = Xmark_store.Updates

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

let encode buf { lsn; op } =
  Codec.add_i64 buf lsn;
  match op with
  | Register_person { name; email } ->
      Codec.add_u8 buf 0;
      Codec.add_str buf name;
      Codec.add_str buf email
  | Place_bid { auction; person; increase; date; time } ->
      Codec.add_u8 buf 1;
      Codec.add_str buf auction;
      Codec.add_str buf person;
      Codec.add_f64 buf increase;
      Codec.add_str buf date;
      Codec.add_str buf time
  | Close_auction { auction; date } ->
      Codec.add_u8 buf 2;
      Codec.add_str buf auction;
      Codec.add_str buf date

(* The cursor must end exactly at the payload's end; an unknown kind byte,
   short input or trailing bytes raise [Corrupt]. *)
let decode d =
  let lsn = Codec.i64 d in
  if lsn < 1 then Page_io.corrupt "wal record: bad lsn %d" lsn;
  let op =
    match Codec.u8 d with
    | 0 ->
        let name = Codec.str d in
        let email = Codec.str d in
        Register_person { name; email }
    | 1 ->
        let auction = Codec.str d in
        let person = Codec.str d in
        let increase = Codec.f64 d in
        let date = Codec.str d in
        let time = Codec.str d in
        Place_bid { auction; person; increase; date; time }
    | 2 ->
        let auction = Codec.str d in
        let date = Codec.str d in
        Close_auction { auction; date }
    | k -> Page_io.corrupt "wal record: unknown kind %d" k
  in
  { lsn; op }

let decode_string s =
  let d = Codec.decoder s in
  let r = decode d in
  Codec.finish d;
  r

let apply session op =
  match op with
  | Register_person { name; email } -> Some (Updates.register_person session ~name ~email)
  | Place_bid { auction; person; increase; date; time } ->
      Updates.place_bid session ~auction ~person ~increase ~date ~time;
      None
  | Close_auction { auction; date } ->
      Updates.close_auction session ~auction ~date;
      None

let describe = function
  | Register_person { name; _ } -> Printf.sprintf "register_person %s" name
  | Place_bid { auction; person; increase; _ } ->
      Printf.sprintf "place_bid %s by %s +%.2f" auction person increase
  | Close_auction { auction; _ } -> Printf.sprintf "close_auction %s" auction
