(* The write path: WAL records round-trip and recover exactly (torn
   tails truncate, CRC-valid damage raises the typed Corrupt), the
   writer reopens to the identical post-replay state, published epochs
   are immutable under later commits (snapshot isolation), every
   path-copied epoch answers like a fresh load of its serialized tree
   and a commit builds a bounded number of nodes, the server
   answers writes with the typed commit/rejection statuses, and a mixed
   read/write workload over four client domains never observes a torn
   store (zero per-epoch digest mismatches). *)

module Runner = Xmark_core.Runner
module Record = Xmark_wal.Record
module Log = Xmark_wal.Log
module Replay = Xmark_wal.Replay
module Updates = Xmark_store.Updates
module Server = Xmark_service.Server
module Writer = Xmark_service.Writer
module Workload = Xmark_service.Workload
module P = Xmark_service.Protocol
module Crc32 = Xmark_persist.Crc32
module Codec = Xmark_persist.Codec

let tmpdir =
  let d = Filename.temp_file "xmark_wal_test" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  at_exit (fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
          try Unix.rmdir path with Unix.Unix_error _ -> ()
        end
        else try Sys.remove path with Sys_error _ -> ()
      in
      try rm d with Sys_error _ -> ());
  d

let fresh =
  let n = ref 0 in
  fun name ->
    incr n;
    Filename.concat tmpdir (Printf.sprintf "%d-%s" !n name)

(* A tiny deterministic site: persons person0..2, auctions
   open_auction0..2 each with one bidder (so closes can succeed). *)
let tiny_doc =
  let auction i =
    Printf.sprintf
      "<open_auction id=\"open_auction%d\"><initial>10.00</initial>\
       <bidder><date>01/01/2002</date><time>09:00:00</time>\
       <personref person=\"person%d\"/><increase>1.50</increase></bidder>\
       <current>11.50</current><itemref item=\"item%d\"/>\
       <seller person=\"person%d\"/><quantity>1</quantity>\
       <type>Regular</type></open_auction>"
      i i i ((i + 1) mod 3)
  in
  let person i =
    Printf.sprintf
      "<person id=\"person%d\"><name>Person %d</name>\
       <emailaddress>mailto:p%d@example.invalid</emailaddress></person>"
      i i i
  in
  "<site><people>"
  ^ String.concat "" (List.init 3 person)
  ^ "</people><open_auctions>"
  ^ String.concat "" (List.init 3 auction)
  ^ "</open_auctions><closed_auctions></closed_auctions></site>"

let ops =
  [ Record.Register_person { name = "Eve"; email = "mailto:eve@x" };
    Record.Place_bid
      { auction = "open_auction1"; person = "person0"; increase = 2.5;
        date = "07/31/2002"; time = "12:00:00" };
    Record.Close_auction { auction = "open_auction1"; date = "07/31/2002" } ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let make_log ?(base = (100, 42)) path ops =
  let base_len, base_crc = base in
  let log = Log.create ~path ~base_len ~base_crc in
  List.iter (fun op -> ignore (Log.append log op)) ops;
  Log.close log

let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Corrupt" what
  | exception Xmark_persist.Corrupt _ -> ()

(* --- records --------------------------------------------------------------- *)

let test_record_roundtrip () =
  List.iteri
    (fun i op ->
      let r = { Record.lsn = i + 1; op } in
      let b = Buffer.create 64 in
      Record.encode b r;
      let r' = Record.decode_string (Buffer.contents b) in
      Alcotest.(check bool)
        (Printf.sprintf "record %d round-trips" i)
        true (r = r'))
    ops;
  (* hostile payloads are typed, not exceptions *)
  expect_corrupt "empty payload" (fun () -> Record.decode_string "");
  expect_corrupt "unknown kind" (fun () ->
      let b = Buffer.create 16 in
      Codec.add_i64 b 1;
      Codec.add_u8 b 9;
      Record.decode_string (Buffer.contents b));
  expect_corrupt "lsn zero" (fun () ->
      let b = Buffer.create 16 in
      Record.encode b { Record.lsn = 1; op = List.hd ops };
      let s = Buffer.contents b in
      Record.decode_string ("\x00\x00\x00\x00\x00\x00\x00\x00" ^ String.sub s 8 (String.length s - 8)))

(* --- the log file ---------------------------------------------------------- *)

let test_log_append_reopen () =
  let path = fresh "wal.log" in
  make_log path ops;
  let log, recovery = Log.open_ ~expect_base:(100, 42) path in
  Alcotest.(check int) "all records recovered" (List.length ops)
    (List.length recovery.Log.records);
  Alcotest.(check int) "nothing truncated" 0 recovery.Log.truncated_bytes;
  Alcotest.(check int) "last lsn" 3 recovery.Log.last_lsn;
  Alcotest.(check bool) "ops decode identically" true
    (List.map (fun r -> r.Record.op) recovery.Log.records = ops);
  (* appends continue the lsn chain after recovery *)
  Alcotest.(check int) "next lsn" 4 (Log.append log (List.hd ops));
  Log.close log

let test_log_torn_tail_truncates () =
  let path = fresh "wal.log" in
  make_log path ops;
  let whole = read_file path in
  write_file path (String.sub whole 0 (String.length whole - 5));
  let log, recovery = Log.open_ path in
  Log.close log;
  Alcotest.(check int) "last record dropped" 2
    (List.length recovery.Log.records);
  Alcotest.(check bool) "torn bytes reported" true
    (recovery.Log.truncated_bytes > 0);
  (* the truncation is physical: a second reopen is clean *)
  let log, recovery' = Log.open_ path in
  Log.close log;
  Alcotest.(check int) "clean after truncation" 0
    recovery'.Log.truncated_bytes;
  Alcotest.(check int) "still two records" 2
    (List.length recovery'.Log.records)

let test_log_bitflip_is_torn () =
  let path = fresh "wal.log" in
  make_log path ops;
  let whole = read_file path in
  let b = Bytes.of_string whole in
  let i = Bytes.length b - 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
  write_file path (Bytes.to_string b);
  let log, recovery = Log.open_ path in
  Log.close log;
  Alcotest.(check int) "flipped record dropped" 2
    (List.length recovery.Log.records)

let test_log_midlog_flip_is_corrupt () =
  let path = fresh "wal.log" in
  make_log path ops;
  let whole = read_file path in
  (* flip a payload byte of the FIRST record: intact committed frames
     follow, so this cannot be a torn tail — recovery must refuse with
     the typed Corrupt, not silently truncate the intact suffix
     (offset = 25-byte header + 8-byte frame header + 2) *)
  let b = Bytes.of_string whole in
  let i = 25 + 8 + 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
  write_file path (Bytes.to_string b);
  expect_corrupt "mid-log flip" (fun () -> Log.open_ path);
  (* and the refusal is non-destructive: the file is left as found *)
  Alcotest.(check string) "log bytes untouched" (Bytes.to_string b)
    (read_file path)

let test_log_append_cap () =
  let path = fresh "cap.log" in
  let log = Log.create ~path ~base_len:100 ~base_crc:42 in
  (match
     Log.append log
       (Record.Register_person
          { name = String.make Log.max_record 'x'; email = "mailto:big@x" })
   with
  | _ -> Alcotest.fail "oversized append accepted"
  | exception Invalid_argument _ -> ());
  (* the refusal happened before any byte hit the file: the log still
     accepts normal appends and reopens clean with just those *)
  Alcotest.(check int) "lsn 1 after refusal" 1 (Log.append log (List.hd ops));
  Log.close log;
  let log, recovery = Log.open_ path in
  Log.close log;
  Alcotest.(check int) "nothing truncated" 0 recovery.Log.truncated_bytes;
  Alcotest.(check int) "one record" 1 (List.length recovery.Log.records)

let test_log_corrupt_header () =
  let path = fresh "wal.log" in
  make_log path ops;
  let whole = read_file path in
  let bad_magic = Bytes.of_string whole in
  Bytes.set bad_magic 0 'Y';
  write_file path (Bytes.to_string bad_magic);
  expect_corrupt "bad magic" (fun () -> Log.open_ path);
  write_file path (String.sub whole 0 12);
  expect_corrupt "truncated header" (fun () -> Log.open_ path)

let test_log_lsn_gap_is_corrupt () =
  let path = fresh "wal.log" in
  make_log path ops;
  (* a perfectly sealed frame whose LSN skips ahead: impossible from a
     crashed writer, so it must be Corrupt — not silently truncated *)
  let payload = Buffer.create 64 in
  Record.encode payload { Record.lsn = 9; op = List.hd ops };
  let p = Buffer.contents payload in
  let frame = Buffer.create 64 in
  Codec.add_u32 frame (String.length p);
  Codec.add_u32 frame (Crc32.digest p);
  Buffer.add_string frame p;
  write_file path (read_file path ^ Buffer.contents frame);
  expect_corrupt "lsn gap" (fun () -> Log.open_ path)

let test_log_base_binding () =
  let path = fresh "wal.log" in
  make_log ~base:(100, 42) path ops;
  (* matching binding passes, any drift is Corrupt *)
  let log, _ = Log.open_ ~expect_base:(100, 42) path in
  Log.close log;
  expect_corrupt "wrong base length" (fun () ->
      Log.open_ ~expect_base:(101, 42) path);
  expect_corrupt "wrong base crc" (fun () ->
      Log.open_ ~expect_base:(100, 43) path)

(* --- the writer: durability and recovery ----------------------------------- *)

let bootstrap () = Xmark_xml.Sax.parse_string tiny_doc

let no_bootstrap () = Alcotest.fail "reopen must not re-bootstrap"

let update_of = function
  | Record.Register_person { name; email } -> P.Register_person { name; email }
  | Record.Place_bid { auction; person; increase; date; time } ->
      P.Place_bid { auction; person; increase; date; time }
  | Record.Close_auction { auction; date } -> P.Close_auction { auction; date }

let test_writer_recovers_identically () =
  let dir = fresh "writer.d" in
  let writer, info = Writer.open_dir ~dir ~bootstrap () in
  Alcotest.(check bool) "fresh state" true info.Writer.fresh;
  List.iter
    (fun op ->
      match Writer.commit writer (update_of op) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "commit: %s" (Server.error_to_string e))
    ops;
  let digest_before = Writer.digest_of_session (Writer.publish writer) 8 in
  let lsn_before = Writer.last_lsn writer in
  Writer.close writer;
  (* reopen: base + log replay must rebuild the exact store *)
  let writer, info = Writer.open_dir ~dir ~bootstrap:no_bootstrap () in
  Alcotest.(check bool) "recovered, not fresh" false info.Writer.fresh;
  Alcotest.(check int) "every commit replayed" (List.length ops)
    info.Writer.replayed;
  Alcotest.(check int) "lsn resumes" lsn_before (Writer.last_lsn writer);
  Alcotest.(check string) "post-replay digest matches"
    digest_before
    (Writer.digest_of_session (Writer.publish writer) 8);
  (* registered ids continue the sequence after recovery *)
  (match Writer.commit writer (P.Register_person { name = "Post"; email = "mailto:q@x" }) with
  | Ok (lsn, Some id) ->
      Alcotest.(check int) "lsn continues" (lsn_before + 1) lsn;
      Alcotest.(check string) "id sequence continues" "person4" id
  | Ok (_, None) -> Alcotest.fail "register without an id"
  | Error e -> Alcotest.failf "post-recovery commit: %s" (Server.error_to_string e));
  Writer.close writer

let test_checkpoint_recovery_digest () =
  let dir = fresh "checkpoint.d" in
  let writer, _ = Writer.open_dir ~dir ~bootstrap () in
  List.iter
    (fun op ->
      match Writer.commit writer (update_of op) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "commit: %s" (Server.error_to_string e))
    ops;
  let digests_before =
    List.map
      (fun q -> Writer.digest_of_session (Writer.publish writer) q)
      [ 2; 8; 13 ]
  in
  let lsn_before = Writer.last_lsn writer in
  (match Writer.checkpoint writer with
  | Ok folded -> Alcotest.(check int) "every record folded" lsn_before folded
  | Error e -> Alcotest.failf "checkpoint: %s" (Server.error_to_string e));
  Alcotest.(check int) "log restarts empty" 0 (Writer.last_lsn writer);
  (* the compacted writer keeps answering identically before close *)
  Alcotest.(check (list string)) "post-checkpoint digests"
    digests_before
    (List.map
       (fun q -> Writer.digest_of_session (Writer.publish writer) q)
       [ 2; 8; 13 ]);
  Writer.close writer;
  (* reopen: nothing to replay, same answers — the log is truly folded
     into the base, not lost *)
  let writer, info = Writer.open_dir ~dir ~bootstrap:no_bootstrap () in
  Alcotest.(check bool) "recovered, not fresh" false info.Writer.fresh;
  Alcotest.(check int) "nothing replayed" 0 info.Writer.replayed;
  Alcotest.(check (list string)) "recovery digests match"
    digests_before
    (List.map
       (fun q -> Writer.digest_of_session (Writer.publish writer) q)
       [ 2; 8; 13 ]);
  (* the write path stays open: lsn restarts after the fold *)
  (match
     Writer.commit writer
       (P.Register_person { name = "Post Fold"; email = "mailto:f@x" })
   with
  | Ok (lsn, _) -> Alcotest.(check int) "lsn restarts at 1" 1 lsn
  | Error e ->
      Alcotest.failf "post-checkpoint commit: %s" (Server.error_to_string e));
  Writer.close writer

let tree_digest_of_writer writer =
  Digest.to_hex
    (Digest.string (Runner.canonical (Runner.run_session (Writer.publish writer) 8)))

let test_writer_rejects_leave_no_trace () =
  let dir = fresh "reject.d" in
  let writer, _ = Writer.open_dir ~dir ~bootstrap () in
  let digest0 = tree_digest_of_writer writer in
  List.iter
    (fun (what, u, check_fault) ->
      match Writer.commit writer u with
      | Ok _ -> Alcotest.failf "%s: committed" what
      | Error (P.Rejected f) ->
          Alcotest.(check bool) (what ^ " fault shape") true (check_fault f)
      | Error e -> Alcotest.failf "%s: %s" what (Server.error_to_string e))
    [ ( "unknown auction",
        P.Place_bid
          { auction = "open_auction9"; person = "person0"; increase = 1.0;
            date = "d"; time = "t" },
        function P.Unknown_auction _ -> true | _ -> false );
      ( "unknown person",
        P.Place_bid
          { auction = "open_auction0"; person = "person9"; increase = 1.0;
            date = "d"; time = "t" },
        function P.Unknown_person _ -> true | _ -> false );
      ( "non-positive increase",
        P.Place_bid
          { auction = "open_auction0"; person = "person0"; increase = 0.0;
            date = "d"; time = "t" },
        function P.Invalid_update _ -> true | _ -> false ) ];
  Alcotest.(check int) "nothing logged" 0 (Writer.last_lsn writer);
  Alcotest.(check string) "tree untouched" digest0 (tree_digest_of_writer writer);
  Writer.close writer

let test_writer_oversized_update_rejected () =
  (* an update whose record would exceed the 1 MiB WAL frame cap must be
     a typed rejection BEFORE apply: recovery drops oversized frames as
     torn tails, so committing one would acknowledge durability the next
     restart silently deletes *)
  let dir = fresh "oversized.d" in
  let writer, _ = Writer.open_dir ~dir ~bootstrap () in
  Fun.protect
    ~finally:(fun () -> Writer.close writer)
    (fun () ->
      let digest0 = tree_digest_of_writer writer in
      let huge = String.make (1 lsl 20) 'x' in
      (match
         Writer.commit writer
           (P.Register_person { name = huge; email = "mailto:big@x" })
       with
      | Ok _ -> Alcotest.fail "oversized update committed"
      | Error (P.Rejected (P.Invalid_update _)) -> ()
      | Error e -> Alcotest.failf "oversized: %s" (Server.error_to_string e));
      Alcotest.(check int) "nothing logged" 0 (Writer.last_lsn writer);
      Alcotest.(check string) "tree untouched" digest0
        (tree_digest_of_writer writer);
      (* the writer is not poisoned: a normal commit still lands *)
      match
        Writer.commit writer
          (P.Register_person { name = "Small"; email = "mailto:s@x" })
      with
      | Ok (1, Some _) -> ()
      | Ok _ -> Alcotest.fail "unexpected commit shape"
      | Error e ->
          Alcotest.failf "post-reject commit: %s" (Server.error_to_string e))

(* --- the server: epochs, statuses, isolation ------------------------------- *)

let writable_server ?config dir =
  let writer, _ = Writer.open_dir ~dir ~bootstrap () in
  (Server.create_writable ?config writer, writer)

let test_server_write_statuses () =
  let server, writer = writable_server (fresh "statuses.d") in
  let handle u = Server.handle server (P.request (P.Update u)) in
  (* commit: lsn/epoch advance together, the reply is status 0 *)
  (match handle (P.Place_bid { auction = "open_auction0"; person = "person1";
                               increase = 2.0; date = "d"; time = "t" }) with
  | Ok (P.Committed c) ->
      Alcotest.(check int) "first lsn" 1 c.P.lsn;
      Alcotest.(check int) "epoch = lsn" 1 c.P.epoch;
      Alcotest.(check int) "server epoch advanced" 1 (Server.epoch server)
  | Ok (P.Reply _ | P.Partial_reply _) ->
      Alcotest.fail "write answered as a read"
  | Error e -> Alcotest.failf "bid: %s" (Server.error_to_string e));
  (* typed rejection: status 7, nothing durable *)
  (match handle (P.Close_auction { auction = "open_auction9"; date = "d" }) with
  | Error (P.Rejected (P.Unknown_auction _) as e) ->
      Alcotest.(check int) "rejected is status 7" 7 (P.status_code e)
  | r ->
      Alcotest.failf "close of unknown auction: %s"
        (match r with
        | Ok _ -> "committed"
        | Error e -> Server.error_to_string e));
  Alcotest.(check int) "rejection not logged" 1 (Writer.last_lsn writer);
  (* reads carry the epoch they were answered at *)
  (match Server.handle server (P.request (P.Benchmark 1)) with
  | Ok (P.Reply r) -> Alcotest.(check int) "reply epoch" 1 r.P.epoch
  | Ok (P.Committed _ | P.Partial_reply _) ->
      Alcotest.fail "read answered as a commit"
  | Error e -> Alcotest.failf "read: %s" (Server.error_to_string e));
  let t = Server.totals server in
  Alcotest.(check int) "totals.committed" 1 t.Server.committed;
  Alcotest.(check int) "totals.write_rejected" 1 t.Server.write_rejected;
  Writer.close writer

let test_server_read_only_refusal () =
  let session = Runner.load ~source:(`Text tiny_doc) Runner.D in
  let server = Server.create session in
  match
    Server.handle server
      (P.request (P.Update (P.Register_person { name = "N"; email = "e" })))
  with
  | Error (P.Read_only _ as e) ->
      Alcotest.(check int) "read-only is status 8" 8 (P.status_code e)
  | Ok _ -> Alcotest.fail "read-only server accepted a write"
  | Error e ->
      Alcotest.failf "expected Read_only, got %s" (Server.error_to_string e)

let test_epoch_isolation () =
  (* a session pinned before a commit keeps answering from its epoch:
     a commit derives a new store and never writes a node an earlier
     one can reach *)
  let server, writer = writable_server (fresh "isolation.d") in
  let pinned = Server.session server in
  let before = Writer.digest_of_session pinned 8 in
  (match
     Server.handle server
       (P.request
          (P.Update
             (P.Close_auction { auction = "open_auction0"; date = "07/31/2002" })))
   with
  | Ok (P.Committed _) -> ()
  | _ -> Alcotest.fail "close did not commit");
  Alcotest.(check string) "pinned session unchanged by the commit" before
    (Writer.digest_of_session pinned 8);
  (* the new epoch sees the write: Q8 joins people with closed auctions *)
  let after = Writer.digest_of_session (Server.session server) 8 in
  Alcotest.(check bool) "new epoch answers differently" true (before <> after);
  Writer.close writer

(* --- mixed workload: the isolation gate under real concurrency ------------- *)

let test_mixed_workload_isolated () =
  let document = Xmark_xmlgen.Generator.to_string ~factor:0.002 () in
  let writer, _ =
    Writer.open_dir ~dir:(fresh "mixed.d")
      ~bootstrap:(fun () -> Xmark_xml.Sax.parse_string document)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Writer.close writer)
    (fun () ->
      let server = Server.create_writable writer in
      let report =
        Workload.run ~seed:23L ~domains:4 ~clients:4 ~requests:160
          ~mix:Workload.mixed_mix
          ~write_targets:(Writer.write_targets writer)
          server
      in
      Alcotest.(check int) "no digest mismatches across epochs" 0
        report.Workload.r_digest_mismatches;
      Alcotest.(check bool) "reads answered" true (report.Workload.r_ok > 0);
      Alcotest.(check bool) "writes committed" true
        (report.Workload.r_committed > 0);
      Alcotest.(check int) "no failures" 0 report.Workload.r_failed;
      Alcotest.(check int) "every request accounted for"
        report.Workload.r_requests
        (report.Workload.r_ok + report.Workload.r_committed
        + report.Workload.r_timeouts + report.Workload.r_rejected
        + report.Workload.r_conflicts + report.Workload.r_failed);
      (* determinism: the same seed replays the same commit count *)
      let writer2, _ =
        Writer.open_dir ~dir:(fresh "mixed2.d")
          ~bootstrap:(fun () -> Xmark_xml.Sax.parse_string document)
          ()
      in
      Fun.protect
        ~finally:(fun () -> Writer.close writer2)
        (fun () ->
          let server2 = Server.create_writable writer2 in
          let report2 =
            Workload.run ~seed:23L ~domains:1 ~clients:4 ~requests:160
              ~mix:Workload.mixed_mix
              ~write_targets:(Writer.write_targets writer2)
              server2
          in
          Alcotest.(check int) "single-domain replay also isolated" 0
            report2.Workload.r_digest_mismatches))

(* --- epochs: path-copied stores against a fresh bulkload ------------------ *)

module MM = Xmark_store.Backend_mainmem
module Prng = Xmark_prng.Prng

let epoch_doc = lazy (Xmark_xmlgen.Generator.to_string ~factor:0.01 ())

let all_queries = List.init 20 (fun i -> i + 1)

let digests store =
  let session = Runner.adopt_mainmem store in
  List.map (Writer.digest_of_session session) all_queries

(* What a bulkload of the same system reads from the epoch's document. *)
let fresh_load store =
  MM.of_string ~level:(MM.level store) (Xmark_xml.Serialize.to_string (MM.dom_root store))

(* Preorder walk through the store's own navigation: the node array and
   each node's position, keyed by its order (unique within a store). *)
let preorder store =
  let acc = ref [] in
  let rec walk n =
    acc := n :: !acc;
    List.iter walk (MM.children store n)
  in
  walk (MM.root store);
  let nodes = Array.of_list (List.rev !acc) in
  let pos = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun i n -> Hashtbl.replace pos (MM.order store n) i) nodes;
  (nodes, pos)

(* Every access path the evaluator reads order through, compared node
   for node by preorder position: parent, subtree_interval (as the set
   of positions it covers), tag_nodes and id_lookup. *)
let check_structure ~what epoch =
  let fresh = fresh_load epoch in
  let (e_nodes, e_pos), (f_nodes, f_pos) = (preorder epoch, preorder fresh) in
  let n = Array.length f_nodes in
  Alcotest.(check int) (what ^ ": node count") n (Array.length e_nodes);
  Alcotest.(check int) (what ^ ": node_count") (MM.node_count fresh) (MM.node_count epoch);
  let at store pos = Option.map (fun x -> Hashtbl.find pos (MM.order store x)) in
  let orders store nodes = Array.map (MM.order store) nodes in
  let e_orders = orders epoch e_nodes and f_orders = orders fresh f_nodes in
  for i = 1 to n - 1 do
    if e_orders.(i) <= e_orders.(i - 1) then
      Alcotest.failf "%s: order not increasing at position %d" what i
  done;
  (* positions in [i, covered) have orders inside the interval *)
  let covered orders (lo, hi) i =
    if orders.(i) <> lo then Alcotest.failf "%s: interval starts off the node" what;
    let rec go j = if j < n && orders.(j) < hi then go (j + 1) else j in
    go i
  in
  for i = 0 to n - 1 do
    let e = e_nodes.(i) and f = f_nodes.(i) in
    if at epoch e_pos (MM.parent epoch e) <> at fresh f_pos (MM.parent fresh f) then
      Alcotest.failf "%s: parent differs at position %d" what i;
    match (MM.subtree_interval epoch e, MM.subtree_interval fresh f) with
    | Some ie, Some iff ->
        if covered e_orders ie i <> covered f_orders iff i then
          Alcotest.failf "%s: subtree interval differs at position %d" what i
    | _ -> Alcotest.failf "%s: no subtree interval" what
  done;
  let tags = Hashtbl.create 97 in
  Array.iter
    (fun x -> if MM.kind fresh x = `Element then Hashtbl.replace tags (MM.name fresh x) ())
    f_nodes;
  Hashtbl.iter
    (fun tag () ->
      let positions store pos =
        List.map (fun x -> Hashtbl.find pos (MM.order store x))
          (Option.get (MM.tag_nodes store tag))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "%s: extent of <%s>" what (Xmark_xml.Symbol.to_string tag))
        (positions fresh f_pos) (positions epoch e_pos))
    tags;
  Array.iter
    (fun x ->
      match MM.attribute fresh x "id" with
      | Some id ->
          let look store pos = Option.map (fun l -> at store pos l) (MM.id_lookup store id) in
          if look epoch e_pos <> look fresh f_pos then
            Alcotest.failf "%s: id_lookup %s differs" what id
      | None -> ())
    f_nodes

let expect_fault what check session op =
  let before = Updates.store session in
  match Record.apply session op with
  | _ -> Alcotest.failf "%s: committed" what
  | exception Updates.Update_error f ->
      if not (check f) then Alcotest.failf "%s: wrong fault %s" what (Updates.fault_to_string f);
      if Updates.store session != before then Alcotest.failf "%s: the store changed" what

let epochs_match_fresh_loads ~level ~commits:total () =
  let session = Updates.of_string ~level (Lazy.force epoch_doc) in
  let n_auctions, n_persons = Updates.id_bounds session in
  let g = Prng.create ~seed:1302L () in
  let bid auction =
    Record.Place_bid
      { auction; person = Printf.sprintf "person%d" (Prng.int g n_persons);
        increase = float_of_int (1 + Prng.int g 40) /. 2.0;
        date = "07/31/2002"; time = "12:00:00" }
  in
  let auction () = Printf.sprintf "open_auction%d" (Prng.int g n_auctions) in
  let pinned = ref [ (Updates.store session, digests (Updates.store session)) ] in
  let closed = ref [] and rejected = ref 0 and commits = ref 0 in
  while !commits < total do
    (* typed rejections ride along, and must leave the store as it was *)
    (match !commits mod 8 with
    | 3 ->
        expect_fault "unknown person"
          (function Updates.Unknown_person _ -> true | _ -> false)
          session
          (Record.Place_bid
             { auction = "open_auction0"; person = "person999999"; increase = 1.0;
               date = "d"; time = "t" })
    | 5 ->
        expect_fault "unknown auction"
          (function Updates.Unknown_auction _ -> true | _ -> false)
          session (bid "open_auction999999")
    | 7 when !closed <> [] ->
        expect_fault "bid on a closed auction"
          (function Updates.Auction_closed _ -> true | _ -> false)
          session (bid (List.hd !closed))
    | _ -> ());
    let op =
      match Prng.int g 10 with
      | 0 | 1 ->
          Record.Register_person
            { name = Printf.sprintf "Epoch %d" !commits;
              email = Printf.sprintf "mailto:e%d@example.invalid" !commits }
      | 2 | 3 -> Record.Close_auction { auction = auction (); date = "08/01/2002" }
      | _ -> bid (auction ())
    in
    match Record.apply session op with
    | exception Updates.Update_error (Updates.Auction_closed _ | Updates.No_bids _) ->
        (* random ids meet bid-less and already closed auctions *)
        incr rejected
    | _ ->
        incr commits;
        (match op with
        | Record.Close_auction { auction; _ } -> closed := auction :: !closed
        | _ -> ());
        let epoch = Updates.store session in
        let d = digests epoch in
        Alcotest.(check (list string))
          (Printf.sprintf "epoch %d answers like a fresh load" !commits)
          (digests (fresh_load epoch)) d;
        pinned := (epoch, d) :: !pinned;
        if level = `Full && (!commits mod 16 = 1 || !commits = total) then
          check_structure ~what:(Printf.sprintf "epoch %d" !commits) epoch
  done;
  if level = `Full then begin
    Alcotest.(check bool) "closes committed" true (!closed <> []);
    Alcotest.(check bool) "random rejections met" true (!rejected > 0)
  end;
  (* isolation: no later commit changed an earlier epoch's answers *)
  List.iteri
    (fun i (epoch, d) ->
      Alcotest.(check (list string))
        (Printf.sprintf "pinned epoch %d" (List.length !pinned - 1 - i))
        d (digests epoch))
    !pinned

(* The O(update) gate, counted rather than timed: the nodes one commit
   builds (new versions plus inserted nodes) do not grow with the
   document.  A close copies the auction's annotation, which belongs to
   the update; everything else is a fixed handful. *)
let nodes_built_per_commit factor =
  let session = Updates.of_string (Xmark_xmlgen.Generator.to_string ~factor ()) in
  let n_auctions, _ = Updates.id_bounds session in
  let annotation_size auction =
    match MM.find_id (Updates.store session) auction with
    | Some oa ->
        List.fold_left
          (fun a c -> if Xmark_xml.Dom.name c = "annotation" then a + Xmark_xml.Dom.size c else a)
          0 (Xmark_xml.Dom.children oa)
    | None -> 0
  in
  let worst = ref 0 in
  Xmark_stats.enable ();
  Fun.protect ~finally:Xmark_stats.disable (fun () ->
      for i = 0 to 3 * n_auctions - 1 do
        let auction = Printf.sprintf "open_auction%d" (i mod n_auctions) in
        let op, moved =
          match i / n_auctions with
          | 0 ->
              ( Record.Place_bid
                  { auction; person = "person0"; increase = 1.0; date = "d"; time = "t" },
                0 )
          | 1 -> (Record.Register_person { name = "N"; email = "mailto:n@x" }, 0)
          | _ -> (Record.Close_auction { auction; date = "d" }, annotation_size auction)
        in
        Xmark_stats.reset ();
        match Record.apply session op with
        | exception Updates.Update_error _ -> ()
        | _ -> worst := max !worst (Xmark_stats.total "nodes_built" - moved)
      done);
  !worst

let test_commit_work_is_bounded () =
  let small = nodes_built_per_commit 0.001 and large = nodes_built_per_commit 0.01 in
  let bound = 16 in
  Alcotest.(check bool) (Printf.sprintf "f=0.001: %d nodes per commit <= %d" small bound)
    true (0 < small && small <= bound);
  Alcotest.(check bool) (Printf.sprintf "f=0.01: %d nodes per commit <= %d" large bound)
    true (0 < large && large <= bound)

(* Memory, counted: the words reachable from an epoch's root through
   child and parent links are the document plus whatever old versions
   it still holds.  Between two equal rounds of registers and bids that
   grows by the inserted nodes and a constant per commit, whatever the
   size of the sections the commits touch: both factors keep 94 words
   per commit.  Fresh children pointing at their parent's new version
   keep a copy of the section's child list alive per commit: 326 words
   at f=0.001, 743 at f=0.01. *)
let words_per_commit factor =
  let session = Updates.of_string (Xmark_xmlgen.Generator.to_string ~factor ()) in
  let n_auctions, _ = Updates.id_bounds session in
  let per_round = 50 in
  let round () =
    for i = 0 to per_round - 1 do
      let auction = Printf.sprintf "open_auction%d" (i * 7 mod n_auctions) in
      ignore (Record.apply session (Record.Register_person { name = "N"; email = "mailto:n@x" }));
      ignore
        (Record.apply session
           (Record.Place_bid { auction; person = "person0"; increase = 1.0; date = "d"; time = "t" }))
    done
  in
  let words () = Obj.reachable_words (Obj.repr (Updates.root session)) in
  round ();
  let w1 = words () in
  round ();
  (words () - w1) / (2 * per_round)

let test_old_versions_are_released () =
  let bound = 128 in
  List.iter
    (fun factor ->
      let w = words_per_commit factor in
      Alcotest.(check bool)
        (Printf.sprintf "f=%g: %d words kept per commit <= %d" factor w bound)
        true (w <= bound))
    [ 0.001; 0.01 ]

let () =
  Alcotest.run "wal"
    [
      ( "records",
        [ Alcotest.test_case "round-trip and typed decode errors" `Quick
            test_record_roundtrip ] );
      ( "log",
        [
          Alcotest.test_case "append/reopen continuity" `Quick
            test_log_append_reopen;
          Alcotest.test_case "torn tail truncates physically" `Quick
            test_log_torn_tail_truncates;
          Alcotest.test_case "bit flip drops the frame" `Quick
            test_log_bitflip_is_torn;
          Alcotest.test_case "mid-log flip is Corrupt" `Quick
            test_log_midlog_flip_is_corrupt;
          Alcotest.test_case "append enforces the record cap" `Quick
            test_log_append_cap;
          Alcotest.test_case "damaged header is Corrupt" `Quick
            test_log_corrupt_header;
          Alcotest.test_case "lsn gap is Corrupt" `Quick
            test_log_lsn_gap_is_corrupt;
          Alcotest.test_case "base binding enforced" `Quick
            test_log_base_binding;
        ] );
      ( "writer",
        [
          Alcotest.test_case "recovery rebuilds the exact store" `Quick
            test_writer_recovers_identically;
          Alcotest.test_case "checkpoint folds the log into the base" `Quick
            test_checkpoint_recovery_digest;
          Alcotest.test_case "rejections leave no trace" `Quick
            test_writer_rejects_leave_no_trace;
          Alcotest.test_case "oversized update is a typed rejection" `Quick
            test_writer_oversized_update_rejected;
        ] );
      ( "server",
        [
          Alcotest.test_case "write statuses" `Quick test_server_write_statuses;
          Alcotest.test_case "read-only refusal" `Quick
            test_server_read_only_refusal;
          Alcotest.test_case "epoch isolation" `Quick test_epoch_isolation;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "every epoch answers like a fresh load" `Quick
            (epochs_match_fresh_loads ~level:`Full ~commits:64);
          Alcotest.test_case "System E and F epochs too" `Quick (fun () ->
              epochs_match_fresh_loads ~level:`Id_only ~commits:3 ();
              epochs_match_fresh_loads ~level:`Plain ~commits:3 ());
          Alcotest.test_case "nodes built per commit stay bounded" `Quick
            test_commit_work_is_bounded;
          Alcotest.test_case "old versions are released" `Quick
            test_old_versions_are_released;
        ] );
      ( "workload",
        [ Alcotest.test_case "mixed load, 4 domains, zero mismatches" `Quick
            test_mixed_workload_isolated ] );
    ]
