(* The three query workloads: paper-matrix, mainmem-scale and
   sharded-k2.  Each is a list of cells, one per (system, query), run
   in order; a pass runs every cell once.  A cell is timed around the
   program's own calls (prepare + execute + canonicalize, or one
   Scatter.run), and its answer is checked against a reference digest
   outside the timed region. *)

module R = Xmark_core.Runner
module Merge = Xmark_core.Merge
module Partitioner = Xmark_shard.Partitioner
module Scatter = Xmark_shard.Scatter
module Server = Xmark_service.Server
module Protocol = Xmark_service.Protocol

type target =
  | Store of R.store
  | Sharded of Scatter.t * Server.t array
      (* the coordinator, and the shard servers behind its Local legs,
         which the traced run calls leg by leg *)

type cell = { system : string; query : int; target : target }

let is_join q = q >= 8 && q <= 12
let label c = Printf.sprintf "%s/Q%d" c.system c.query

type env = {
  cells : cell array;
  dom : Xmark_xml.Dom.node;
  doc_bytes : int;
  db_bytes : (string * int) list;  (* per system *)
}

(* [span tr name f]: a layer span when tracing, a plain call otherwise. *)
let span tr name f = match tr with None -> f () | Some t -> Spans.with_span t name f

let generate_and_parse tr ~seed ~factor =
  let text =
    span tr "xmlgen.generate" (fun () ->
        Xmark_xmlgen.Generator.to_string ~seed ~factor ())
  in
  let dom = span tr "xml.parse" (fun () -> Xmark_xml.Sax.parse_string text) in
  (text, dom)

let system_of_name = function
  | "A" -> R.A | "B" -> R.B | "C" -> R.C | "D" -> R.D | "E" -> R.E | "F" -> R.F
  | "G" -> R.G
  | s -> invalid_arg ("unknown system " ^ s)

let queries = List.init 20 (fun i -> i + 1)

(* One store per system, loaded from the parsed document (System G keeps
   the serialized text, so it loads from that). *)
let store_env tr ~seed ~factor systems =
  let text, dom = generate_and_parse tr ~seed ~factor in
  let loaded =
    List.map
      (fun name ->
        let sys = system_of_name name in
        let source = if sys = R.G then `Text text else `Dom dom in
        let session = span tr ("store.bulkload." ^ name) (fun () -> R.load ~source sys) in
        (name, session))
      systems
  in
  {
    cells =
      Array.of_list
        (List.concat_map
           (fun (name, s) ->
             List.map (fun q -> { system = name; query = q; target = Store s.R.store }) queries)
           loaded);
    dom;
    doc_bytes = String.length text;
    db_bytes = List.map (fun (name, s) -> (name, s.R.load_stats.R.db_bytes)) loaded;
  }

let sharded_env tr ~seed ~factor ~k =
  let text, dom = generate_and_parse tr ~seed ~factor in
  let partition = span tr "shard.partition" (fun () -> Partitioner.partition ~k dom) in
  let sessions =
    Array.map
      (fun (sh : Partitioner.shard) ->
        span tr "store.bulkload.D" (fun () -> R.load ~source:(`Dom sh.Partitioner.root) R.D))
      partition.Partitioner.shards
  in
  let servers = Array.mapi (fun i s -> Server.create ~shard:i s) sessions in
  let scatter = Scatter.create (Array.to_list (Array.map (fun s -> Scatter.Local s) servers)) in
  let system = Printf.sprintf "D/K%d" k in
  {
    cells =
      Array.of_list
        (List.map (fun q -> { system; query = q; target = Sharded (scatter, servers) }) queries);
    dom;
    doc_bytes = String.length text;
    db_bytes =
      [ ("D", Array.fold_left (fun acc s -> acc + s.R.load_stats.R.db_bytes) 0 sessions) ];
  }

let fail_error e = failwith (Protocol.error_to_string e)

(* One untraced execution: the canonical answer. *)
let run_cell c =
  match c.target with
  | Store st -> R.canonical (R.execute_prepared (R.prepare st c.query))
  | Sharded (scatter, _) -> (
      match Scatter.run scatter c.query with
      | Ok a -> a.Scatter.canonical
      | Error e -> fail_error e)

(* What the traced run accumulates beside its spans. *)
type acc = {
  mutable metadata_accesses : int;
  mutable result_bytes : int;
  mutable prepares : int list;  (* query of every prepare, for the parse split *)
  mutable leg_skews : float list;  (* per sharded cell: slowest leg / mean leg *)
  mutable broadcast_bytes : int;
}

let fresh_acc () =
  { metadata_accesses = 0; result_bytes = 0; prepares = []; leg_skews = []; broadcast_bytes = 0 }

(* The same work as [run_cell], one layer span per call.  A sharded
   cell replays Scatter.run's legs one after another through
   Server.handle, then gathers with Merge.gather. *)
let traced_cell tr acc c =
  let q = c.query in
  let canonical =
    match c.target with
    | Store st ->
        let p = Spans.with_span tr "xquery.prepare" (fun () -> R.prepare st q) in
        acc.prepares <- q :: acc.prepares;
        let exec = if is_join q then "xquery.execute.join" else "xquery.execute.nonjoin" in
        let o = Spans.with_span tr exec (fun () -> R.execute_prepared p) in
        acc.metadata_accesses <- acc.metadata_accesses + o.R.metadata_accesses;
        Spans.with_span tr "xml.canonicalize" (fun () -> R.canonical o)
    | Sharded (_, servers) ->
        let k = Array.length servers in
        let leg_ms = Array.make k 0.0 in
        let leg i op =
          let t0 = Unix.gettimeofday () in
          let payload =
            Spans.with_span tr "shard.leg" (fun () ->
                match
                  Server.handle servers.(i)
                    (Protocol.request ~client:"xbench" (Protocol.Partial { shard = i; op }))
                with
                | Ok (Protocol.Partial_reply p) -> p.Protocol.payload
                | Ok _ -> failwith "shard leg answered with the wrong reply shape"
                | Error e -> fail_error e)
          in
          leg_ms.(i) <- leg_ms.(i) +. ((Unix.gettimeofday () -. t0) *. 1000.0);
          (match op with
          | Merge.Collect _ ->
              acc.broadcast_bytes <-
                List.fold_left (fun a s -> a + String.length s) acc.broadcast_bytes payload
          | Merge.Run _ -> ());
          payload
        in
        let parts = List.map (fun op -> List.init k (fun i -> leg i op)) (Merge.ops q) in
        let mean = Array.fold_left ( +. ) 0.0 leg_ms /. float_of_int k in
        if mean > 0.0 then
          acc.leg_skews <- (Array.fold_left Float.max 0.0 leg_ms /. mean) :: acc.leg_skews;
        snd (Spans.with_span tr "shard.gather" (fun () -> Merge.gather q parts))
  in
  acc.result_bytes <- acc.result_bytes + String.length canonical;
  canonical

let digest s = Digest.to_hex (Digest.string s)

(* The single-store System D answers for this document: the reference
   every answer of a query workload must match (on paper-matrix, every
   system's, so all seven agree). *)
let d_reference dom =
  let store = (R.load ~source:(`Dom dom) R.D).R.store in
  let t = Hashtbl.create 20 in
  List.iter
    (fun q ->
      Hashtbl.replace t q (digest (run_cell { system = "D"; query = q; target = Store store })))
    queries;
  fun q -> Hashtbl.find t q
