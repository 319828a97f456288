(* Every metric the benchmark reports, with its unit.  BENCHMARK.json
   lists the same names; run.py refuses a result whose keys differ.

   End-to-end metrics apply to every workload.  Their times and rates
   are reported at the reference host speed of [Host_probe]; the report
   lines beside them give the values as measured.  A query workload's
   operation is one (system, query) cell and its pass runs every cell
   once; service-mixed's operation is one client request and its pass
   is one round of [Service_workload.round_ops] requests.

   Per-layer metrics come from the traced run.  Times are self times in
   ms per setup (the set-up layers) or per traced pass (everything
   else), so the layers and the unattributed share add up to the traced
   time.  A layer the workload bypasses reads 0. *)

let end_to_end =
  [
    ("setup_s", "s");  (* median of the run's set-ups, warm-up pass included *)
    ("peak_rss_mb", "MB");  (* process high-water mark *)
    ("pass_s", "s");  (* every cell at its median; service-mixed: the median round *)
    ("ops_per_s", "1/s");  (* cells per pass_s; service-mixed: successes per second of rounds *)
    ("query_geomean_ms", "ms");  (* geomean over query classes of the class median *)
  ]

(* Printed beside the end-to-end metrics but not in the result: on
   service-mixed the join class is Q8 alone, whose median moves with how
   often a read waits behind a commit, and spread wider across runs
   than any bound allows. *)
let reported =
  [
    ("join_geomean_ms", "ms");  (* query_geomean_ms over Q8-Q12 *)
    ("nonjoin_geomean_ms", "ms");  (* query_geomean_ms over the other queries *)
  ]

let systems = [ "A"; "B"; "C"; "D"; "E"; "F"; "G" ]

let per_layer =
  [
    ("xmlgen.generate_ms", "ms"); ("xmlgen.doc_bytes", "bytes");
    ("xml.parse_ms", "ms"); ("xml.sax_events", "count");
  ]
  @ List.map (fun s -> ("store.bulkload_ms." ^ s, "ms")) systems
  @ List.map (fun s -> ("store.db_bytes." ^ s, "bytes")) systems
  @ [
      ("shard.partition_ms", "ms");
      ("xquery.parse_ms", "ms/pass"); ("xquery.plan_ms", "ms/pass");
      ("xquery.metadata_accesses", "count/pass");
      ("xquery.execute_ms.join", "ms/pass"); ("xquery.execute_ms.nonjoin", "ms/pass");
      ("xquery.nodes_scanned", "count/pass"); ("xquery.join_probes", "count/pass");
      ("xquery.join_tables_built", "count/pass"); ("xquery.index_lookups", "count/pass");
      ("xquery.elements_materialized", "count/pass");
      ("relational.batches_produced", "count/pass"); ("relational.batch_tuples", "count/pass");
      ("relational.hash_join_probes", "count/pass"); ("relational.vec_fallbacks", "count/pass");
      ("xml.canonicalize_ms", "ms/pass"); ("xml.result_bytes", "bytes/pass");
      ("gc.minor_words", "words/op"); ("gc.major_words", "words/op");
      ("shard.leg_ms", "ms/pass"); ("shard.leg_skew", "ratio");
      ("shard.gather_ms", "ms/pass"); ("shard.broadcast_bytes", "bytes/pass");
      ("writer.commit_ms", "ms/pass"); ("writer.publish_ms", "ms/pass");
      ("wal.bytes_per_commit", "bytes");
      ("service.queue_ms", "ms/op"); ("service.handle_ms", "ms/op");
      ("service.plan_hit_ratio", "ratio");
      ("wire.overhead_ms", "ms/op"); ("wire.encode_ms", "ms/pass"); ("wire.decode_ms", "ms/pass");
      ("wire.request_bytes", "bytes/pass"); ("wire.response_bytes", "bytes/pass");
      ("writer.reopen_ms", "ms"); ("writer.checkpoint_ms", "ms");
      ("trace.setup_unattributed_share", "share"); ("trace.pass_unattributed_share", "share");
      ("trace.pass_ms", "ms"); ("trace.untraced_pass_ms", "ms"); ("trace.overhead_share", "share");
    ]

(* The Xmark_stats counters read per traced pass, by metric name. *)
let counters =
  [
    ("xquery.nodes_scanned", "nodes_scanned"); ("xquery.join_probes", "join_probes");
    ("xquery.join_tables_built", "join_tables_built"); ("xquery.index_lookups", "index_lookups");
    ("xquery.elements_materialized", "elements_materialized");
    ("relational.batches_produced", "batches_produced");
    ("relational.batch_tuples", "batch_tuples");
    ("relational.hash_join_probes", "hash_join_probes");
    ("relational.vec_fallbacks", "vec_fallbacks");
  ]

(* Layer spans whose self time is reported directly, by metric name. *)
let span_metrics =
  [
    ("xmlgen.generate_ms", "xmlgen.generate"); ("xml.parse_ms", "xml.parse");
    ("shard.partition_ms", "shard.partition");
    ("xquery.execute_ms.join", "xquery.execute.join");
    ("xquery.execute_ms.nonjoin", "xquery.execute.nonjoin");
    ("xml.canonicalize_ms", "xml.canonicalize"); ("shard.leg_ms", "shard.leg");
    ("shard.gather_ms", "shard.gather"); ("writer.commit_ms", "writer.commit");
    ("writer.publish_ms", "writer.publish"); ("wire.encode_ms", "wire.encode");
    ("wire.decode_ms", "wire.decode");
  ]
  @ List.map (fun s -> ("store.bulkload_ms." ^ s, "store.bulkload." ^ s)) systems

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The result line: exactly the keys the benchmark contract names, with
   one metric per entry of [spec]. *)
let result_json ~correct ~attempted ~failed metrics spec =
  let field (name, unit) =
    let v =
      match List.assoc_opt name metrics with
      | Some v -> v
      | None -> failwith ("metric not computed: " ^ name)
    in
    if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is not finite" name);
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (fmt_value v) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map field spec))
