(* One request/response vocabulary shared by the in-process server, the
   wire protocol and the CLIs.  The numeric codes are the contract:
   they appear on the wire (status byte), in diagnostics and in exit
   codes, and are append-only. *)

type update =
  | Register_person of { name : string; email : string }
  | Place_bid of {
      auction : string;
      person : string;
      increase : float;
      date : string;
      time : string;
    }
  | Close_auction of { auction : string; date : string }

type query =
  | Benchmark of int
  | Text of string
  | Update of update
  | Partial of { shard : int; op : Xmark_core.Merge.op }

type request = {
  query : query;
  deadline_ms : float option;
  client : string;
}

let request ?deadline_ms ?(client = "") query = { query; deadline_ms; client }

type reply = {
  items : int;
  digest : string;
  epoch : int;
  latency_ms : float;
  queue_ms : float;
  plan_hit : bool;
}

type commit = {
  lsn : int;
  epoch : int;
  assigned : string option;
  latency_ms : float;
  queue_ms : float;
}

type partial = {
  shard : int;
  payload : string list;
  epoch : int;
  latency_ms : float;
  queue_ms : float;
  plan_hit : bool;
}

type outcome = Reply of reply | Committed of commit | Partial_reply of partial

type write_fault =
  | Unknown_auction of string
  | Unknown_person of string
  | Auction_closed of string
  | No_bids of string
  | Missing_section of string
  | Invalid_update of string

type error =
  | Failed of string
  | Bad_request of string
  | Unsupported of string
  | Overloaded of { inflight : int; queued : int }
  | Timeout of { elapsed_ms : float }
  | Unavailable of string
  | Rejected of write_fault
  | Read_only of string
  | Wrong_shard of { served : int; requested : int }
  | Not_sharded of string

type response = (outcome, error) result

let status_code = function
  | Failed _ -> 1
  | Bad_request _ -> 2
  | Unsupported _ -> 3
  | Overloaded _ -> 4
  | Timeout _ -> 5
  | Unavailable _ -> 6
  | Rejected _ -> 7
  | Read_only _ -> 8
  | Wrong_shard _ -> 9
  | Not_sharded _ -> 10

let status_of_response = function Ok _ -> 0 | Error e -> status_code e

let status_name = function
  | 0 -> "ok"
  | 1 -> "failed"
  | 2 -> "bad-request"
  | 3 -> "unsupported"
  | 4 -> "overloaded"
  | 5 -> "timeout"
  | 6 -> "unavailable"
  | 7 -> "rejected"
  | 8 -> "read-only"
  | 9 -> "wrong-shard"
  | 10 -> "not-sharded"
  | _ -> "unknown"

let write_fault_to_string = function
  | Unknown_auction id -> Printf.sprintf "no such open auction %s" id
  | Unknown_person id -> Printf.sprintf "no such person %s" id
  | Auction_closed id -> Printf.sprintf "auction %s is already closed" id
  | No_bids id -> Printf.sprintf "auction %s has no bids; cannot close" id
  | Missing_section tag -> Printf.sprintf "document has no <%s> section" tag
  | Invalid_update msg -> msg

let error_to_string e =
  let body =
    match e with
    | Failed msg -> "failed: " ^ msg
    | Bad_request msg -> "bad request: " ^ msg
    | Unsupported msg -> "unsupported: " ^ msg
    | Overloaded { inflight; queued } ->
        Printf.sprintf "overloaded (%d in flight, %d queued)" inflight queued
    | Timeout { elapsed_ms } -> Printf.sprintf "timeout after %.1f ms" elapsed_ms
    | Unavailable msg -> "unavailable: " ^ msg
    | Rejected f -> "rejected: " ^ write_fault_to_string f
    | Read_only msg -> "read-only: " ^ msg
    | Wrong_shard { served; requested } ->
        Printf.sprintf "wrong shard: this worker serves shard %d, not %d"
          served requested
    | Not_sharded msg -> "not sharded: " ^ msg
  in
  Printf.sprintf "error %d: %s" (status_code e) body

let describe_update = function
  | Register_person { name; _ } -> Printf.sprintf "register_person %s" name
  | Place_bid { auction; person; increase; _ } ->
      Printf.sprintf "place_bid %s by %s +%.2f" auction person increase
  | Close_auction { auction; _ } -> Printf.sprintf "close_auction %s" auction
