(* The service-mixed workload: a writable Server (single Writer, WAL
   fsynced on every commit) behind an in-process Wire_server on a Unix
   socket, driven closed-loop by 2 wire clients with Workload.mixed_mix
   (about one write in three).  The run proceeds in rounds of a fixed
   number of operations; a round is this workload's pass.

   The traced run replays the same seeded mix from one client without
   the server: writes call Writer.commit then Writer.publish, reads call
   the Runner, and both sides of every exchange go through Wire_codec. *)

module R = Xmark_core.Runner
module Server = Xmark_service.Server
module Writer = Xmark_service.Writer
module Workload = Xmark_service.Workload
module Protocol = Xmark_service.Protocol
module Wire_codec = Xmark_wire.Wire_codec
module Addr = Xmark_wire.Addr
module Client = Xmark_wire.Client
module Wire_server = Xmark_wire.Wire_server
module Prng = Xmark_prng.Prng

let factor = 0.01
let clients = 2
let round_ops = 180
let mix = Workload.mixed_mix

let read_classes =
  List.filter_map (function Workload.Query q, _ -> Some q | _ -> None) mix

(* --- one client-side observation ------------------------------------------ *)

type status = Ok_reply | Ok_commit | Conflict | Failed of string

type sample = {
  cls : Workload.op_class;
  client_ms : float;
  server_ms : float;  (* reply.latency_ms *)
  queue_ms : float;
  status : status;
}

type sink = { lock : Mutex.t; mutable samples : sample list }

let class_of_query = function
  | Protocol.Benchmark q -> Workload.Query q
  | Protocol.Update (Protocol.Place_bid _) -> Workload.Bid
  | Protocol.Update (Protocol.Register_person _) -> Workload.Register
  | Protocol.Update (Protocol.Close_auction _) -> Workload.Close
  | Protocol.Text _ | Protocol.Partial _ -> invalid_arg "the workload sends no such request"

let observe req resp client_ms =
  let cls = class_of_query req.Protocol.query in
  let server_ms, queue_ms, status =
    match resp with
    | Ok (Protocol.Reply r) -> (r.Protocol.latency_ms, r.Protocol.queue_ms, Ok_reply)
    | Ok (Protocol.Committed c) -> (c.Protocol.latency_ms, c.Protocol.queue_ms, Ok_commit)
    | Error (Protocol.Rejected _) -> (0.0, 0.0, Conflict)
    | Ok (Protocol.Partial_reply _) -> (0.0, 0.0, Failed "unexpected partial reply")
    | Error e -> (0.0, 0.0, Failed (Protocol.error_to_string e))
  in
  { cls; client_ms; server_ms; queue_ms; status }

(* Client.transport with every call clocked on the client side and
   recorded; a connection's samples join the sink when it closes. *)
let recording_transport addr sink : Workload.transport =
 fun () ->
  let inner = Client.transport addr () in
  let mine = ref [] in
  {
    Workload.call =
      (fun req ->
        let t0 = Unix.gettimeofday () in
        let resp = inner.Workload.call req in
        mine := observe req resp ((Unix.gettimeofday () -. t0) *. 1000.0) :: !mine;
        resp);
    close =
      (fun () ->
        inner.Workload.close ();
        Mutex.protect sink.lock (fun () -> sink.samples <- List.rev_append !mine sink.samples);
        mine := []);
  }

(* --- set-up ---------------------------------------------------------------- *)

type env = {
  dir : string;
  dom : Xmark_xml.Dom.node;
  writer : Writer.t;
  server : Server.t;
  wire : Wire_server.t;
  addr : Addr.t;
  doc_bytes : int;
  db_bytes : int;
}

let span = Query_workloads.span

let open_writer ~dir dom =
  fst (Writer.open_dir ~dir ~bootstrap:(fun () -> dom) ())

let setup tr ~seed ~dir =
  let text, dom = Query_workloads.generate_and_parse tr ~seed ~factor in
  let writer, server =
    span tr "store.bulkload.D" (fun () ->
        let writer = open_writer ~dir dom in
        (writer, Server.create_writable writer))
  in
  let addr = Addr.Unix_sock (Filename.concat dir "wire.sock") in
  let wire = Wire_server.start addr server in
  {
    dir;
    dom;
    writer;
    server;
    wire;
    addr;
    doc_bytes = String.length text;
    db_bytes = (Server.session server).R.load_stats.R.db_bytes;
  }

(* Warm-up: every read class once over the wire, so the plan cache and
   the store's lazy state are filled before timing. *)
let warm_up env =
  let c = Client.connect env.addr in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      List.iter
        (fun q ->
          match Client.call c (Protocol.request (Protocol.Benchmark q)) with
          | Ok (Protocol.Reply _) -> ()
          | Ok _ -> failwith "warm-up: unexpected reply shape"
          | Error e -> failwith ("warm-up: " ^ Protocol.error_to_string e))
        read_classes)

let stop env =
  Wire_server.stop env.wire;
  Writer.close env.writer

(* --- the closed loop ------------------------------------------------------- *)

type round = { elapsed_s : float; mismatches : int }

let round_seed ~seed r = Int64.(add (mul (of_int seed) 1_000_003L) (of_int r))

let run_round env sink ~seed r =
  let report =
    Workload.run_transport ~seed:(round_seed ~seed r)
      ~write_targets:(Writer.write_targets env.writer) ~clients ~requests:round_ops ~mix
      (recording_transport env.addr sink)
  in
  { elapsed_s = report.Workload.r_elapsed_s; mismatches = report.Workload.r_digest_mismatches }

(* A fixed number of rounds.  The store changes as the run goes on
   (auctions close, so later bids meet more typed conflicts), so a run
   bounded by time would do different work on a faster host; a run of
   [rounds_per_second] rounds per requested second does the same work
   everywhere and takes about that long on a 2-core host. *)
let rounds_per_second = 1

let run_rounds ?(between = ignore) env sink ~seed ~rounds =
  List.init rounds (fun r ->
      between ();
      run_round env sink ~seed r)

let all_queries = List.init 20 (fun i -> i + 1)

let digests session = List.map (Writer.digest_of_session session) all_queries

(* The durability gate: after the server stops, reopening the WAL
   directory must replay exactly the acknowledged commits and answer
   every query with the final epoch's digests.  Returns the problems. *)
let durability_gate env ~acked =
  let final = digests (Server.session env.server) in
  let last_lsn = Writer.last_lsn env.writer in
  stop env;
  let problems = ref [] in
  if last_lsn <> acked then
    problems :=
      Printf.sprintf "%d commits acknowledged, log ends at lsn %d" acked last_lsn :: !problems;
  let reopened, info =
    Writer.open_dir ~dir:env.dir ~bootstrap:(fun () -> failwith "WAL directory vanished") ()
  in
  Fun.protect
    ~finally:(fun () -> Writer.close reopened)
    (fun () ->
      if info.Writer.replayed <> acked then
        problems :=
          Printf.sprintf "reopen replayed %d records, %d acknowledged" info.Writer.replayed acked
          :: !problems;
      if digests (Writer.publish reopened) <> final then
        problems := "reopened store answers differ from the final epoch" :: !problems);
  List.rev !problems

(* --- the traced single-client replay -------------------------------------- *)

let replay_ops ~seed ~write_targets =
  let gen = Prng.create ~seed:(round_seed ~seed 999_983) () in
  let total = List.fold_left (fun a (_, w) -> a + w) 0 mix in
  let n_auctions, n_persons = write_targets in
  List.init round_ops (fun i ->
      let r = Prng.int gen total in
      let rec pick acc = function
        | [] -> assert false
        | (c, w) :: rest -> if r < acc + w then c else pick (acc + w) rest
      in
      match pick 0 mix with
      | Workload.Query q -> Protocol.Benchmark q
      | Workload.Bid ->
          Protocol.Update
            (Protocol.Place_bid
               {
                 auction = Printf.sprintf "open_auction%d" (Prng.int gen n_auctions);
                 person = Printf.sprintf "person%d" (Prng.int gen n_persons);
                 increase = float_of_int (1 + Prng.int gen 40) /. 2.0;
                 date = "07/31/2002";
                 time = "12:00:00";
               })
      | Workload.Register ->
          Protocol.Update
            (Protocol.Register_person
               {
                 name = Printf.sprintf "Replay %d" i;
                 email = Printf.sprintf "mailto:r%d@xbench.invalid" i;
               })
      | Workload.Close ->
          Protocol.Update
            (Protocol.Close_auction
               {
                 auction = Printf.sprintf "open_auction%d" (Prng.int gen n_auctions);
                 date = "07/31/2002";
               }))

type replay_acc = {
  mutable request_bytes : int;
  mutable response_bytes : int;
  mutable wal_bytes : int;
  mutable commits : int;
  mutable conflicts : int;
  mutable prepares : int list;
  mutable metadata_accesses : int;
  mutable result_bytes : int;
}

let fresh_replay_acc () =
  { request_bytes = 0; response_bytes = 0; wal_bytes = 0; commits = 0; conflicts = 0;
    prepares = []; metadata_accesses = 0; result_bytes = 0 }

let file_size path = (Unix.stat path).Unix.st_size

(* Both sides of one exchange through the codec, as a wire server and
   client would: request out and back, then the response. *)
let codec tr acc req respond =
  let wire = span tr "wire.encode" (fun () -> Wire_codec.encode_request req) in
  acc.request_bytes <- acc.request_bytes + String.length wire;
  let req =
    match span tr "wire.decode" (fun () -> Wire_codec.decode_request wire) with
    | Ok r -> r
    | Error e -> failwith ("request codec: " ^ e)
  in
  let resp = respond req in
  let wire = span tr "wire.encode" (fun () -> Wire_codec.encode_response resp) in
  acc.response_bytes <- acc.response_bytes + String.length wire;
  match span tr "wire.decode" (fun () -> Wire_codec.decode_response wire) with
  | Ok r -> r
  | Error e -> failwith ("response codec: " ^ e)

(* Replay [ops] against [writer], whose published state is [session],
   from one client.  Returns the final session; [tr] adds layer spans,
   one "op" span per operation. *)
let replay tr acc ~writer ~session ~dir ops =
  let session = ref session in
  let wal = Filename.concat dir "wal.log" in
  let one req =
    match req.Protocol.query with
    | Protocol.Benchmark q ->
        let store = !session.R.store in
        let p = span tr "xquery.prepare" (fun () -> R.prepare store q) in
        acc.prepares <- q :: acc.prepares;
        let exec =
          if Query_workloads.is_join q then "xquery.execute.join" else "xquery.execute.nonjoin"
        in
        let o = span tr exec (fun () -> R.execute_prepared p) in
        acc.metadata_accesses <- acc.metadata_accesses + o.R.metadata_accesses;
        let c = span tr "xml.canonicalize" (fun () -> R.canonical o) in
        acc.result_bytes <- acc.result_bytes + String.length c;
        Ok
          (Protocol.Reply
             { items = o.R.items; digest = Query_workloads.digest c; epoch = Writer.last_lsn writer;
               latency_ms = 0.0; queue_ms = 0.0; plan_hit = false })
    | Protocol.Update u -> (
        let before = file_size wal in
        match span tr "writer.commit" (fun () -> Writer.commit writer u) with
        | Ok (lsn, assigned) ->
            acc.commits <- acc.commits + 1;
            acc.wal_bytes <- acc.wal_bytes + (file_size wal - before);
            session := span tr "writer.publish" (fun () -> Writer.publish writer);
            Ok
              (Protocol.Committed
                 { lsn; epoch = lsn; assigned; latency_ms = 0.0; queue_ms = 0.0 })
        | Error (Protocol.Rejected _ as e) ->
            acc.conflicts <- acc.conflicts + 1;
            Error e
        | Error e -> failwith ("replay commit: " ^ Protocol.error_to_string e))
    | Protocol.Text _ | Protocol.Partial _ -> failwith "replay: unexpected request"
  in
  List.iteri
    (fun i q ->
      let run () = ignore (codec tr acc (Protocol.request q) one) in
      match tr with None -> run () | Some t -> Spans.op t i run)
    ops;
  !session
