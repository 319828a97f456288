(* xbench: the repository benchmark.

     xbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--workdir DIR]
     xbench.exe --self-test

   Workloads (every one System D unless stated):
   - paper-matrix: systems A-G x Q1-Q20 at factor 0.01, one store per
     system, in process, sequential — the paper's own experiment, and
     the only run of A-C and E-G (vectorized path, Plans_c, path
     compilers, nested-loop joins).
   - mainmem-scale: Q1-Q20 on the unsharded main-memory store at a
     larger factor, where execution and canonicalization dominate.
   - sharded-k2: the same document partitioned into 2 shards, queries
     through Scatter.run over two Local shard servers — the only run of
     Partitioner, Scatter and Merge.
   - service-mixed: a writable Server behind Wire_server, 2 closed-loop
     wire clients on Workload.mixed_mix — the only run of Writer, the
     WAL, Plan_cache, admission and the wire.

   An untraced run (--trace 0) sets up three times (reporting the median
   set-up, warm-up pass included), then times passes for --seconds
   (service-mixed: a fixed number of rounds per second, see
   Service_workload) and prints the end-to-end metrics.  On the query
   workloads each pass starts from a collected heap, a cell's sample is
   a batch of executions at least [min_batch_ms] long, and a cell is
   reported at its median over the passes.  A traced run (--trace 1) sets up once
   with a span around every layer call, runs one untraced and one traced
   pass, and prints the per-layer metrics: self times, counters, the
   unattributed share and the tracing overhead.  Every answer is checked
   in both; the last stdout line is the JSON result. *)

module Q = Query_workloads
module Svc = Service_workload
module Writer = Xmark_service.Writer

let now = Unix.gettimeofday
let setups = 3

(* --- provenance ------------------------------------------------------------ *)

let read_file path = try Some (In_channel.with_open_text path In_channel.input_all) with _ -> None

let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> failwith "cannot read /proc/self/status for the peak RSS"
  | Some s ->
      let line =
        List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' s)
      in
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)

(* The filesystem type of the mount holding [path]. *)
let filesystem_of path =
  let path = try Unix.realpath path with _ -> path in
  match read_file "/proc/self/mounts" with
  | None -> "unknown"
  | Some s ->
      List.fold_left
        (fun (best_len, best) line ->
          match String.split_on_char ' ' line with
          | _ :: mnt :: fs :: _
            when String.starts_with ~prefix:mnt path && String.length mnt > best_len ->
              (String.length mnt, fs)
          | _ -> (best_len, best))
        (-1, "unknown") (String.split_on_char '\n' s)
      |> snd

let provenance ~workload ~seed ~factor ~trace ~runs ~wal =
  let setups = if trace then 1 else setups in
  Printf.sprintf
    "{\"workload\": \"%s\", \"commit\": \"%s\", \"seed\": %d, \"factor\": %g, \"nproc\": %d, \
     \"ocaml\": \"%s\", \"trace\": %b, \"setups\": %d, \"passes\": %d%s}"
    workload (Xmark_core.Provenance.commit ()) seed factor (Domain.recommended_domain_count ())
    Sys.ocaml_version trace setups runs
    (match wal with
    | None -> ""
    | Some dir ->
        Printf.sprintf ", \"wal_filesystem\": \"%s\", \"flush\": \"fsync per commit\""
          (filesystem_of dir))

(* --- shared helpers -------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* A failed check: counted against the attempted operations and named
   on stdout. *)
type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let fail tally msg =
  tally.failed <- tally.failed + 1;
  if List.length tally.notes < 20 then tally.notes <- msg :: tally.notes

let emit ~workload ~tally metrics spec =
  List.iter (fun m -> say "FAILED %s: %s" workload m) (List.rev tally.notes);
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name metrics with
      | Some v -> say "%-34s %14.4f %s" name v unit
      | None -> ())
    (spec @ Metrics.reported);
  let correct = tally.failed = 0 in
  print_endline
    (Metrics.result_json ~correct ~attempted:tally.attempted ~failed:tally.failed metrics spec);
  if not correct then exit 1

let stats_delta snap name = Option.value ~default:0 (List.assoc_opt name (Xmark_stats.since snap))

(* The per-pass counter metrics, read since [snap]. *)
let counter_metrics snap =
  List.map
    (fun (metric, counter) -> (metric, float_of_int (stats_delta snap counter)))
    Metrics.counters

(* The per-layer metrics every traced run reports: span self times by
   name, the unattributed shares, and the explicit values in [extra];
   the rest read 0. *)
let layer_metrics tr ~extra =
  let extra =
    ("trace.setup_unattributed_share", Spans.unattributed_share tr ~root_name:"setup")
    :: ("trace.pass_unattributed_share", Spans.unattributed_share tr ~root_name:"pass")
    :: extra
  in
  let setup_self, _ = Spans.self_times tr ~root_name:"setup" in
  let pass_self, _ = Spans.self_times tr ~root_name:"pass" in
  let self name =
    let find t = Option.value ~default:0.0 (Hashtbl.find_opt t name) in
    find setup_self +. find pass_self
  in
  List.map
    (fun (metric, _) ->
      match List.assoc_opt metric extra with
      | Some v -> (metric, v)
      | None -> (
          match List.assoc_opt metric Metrics.span_metrics with
          | Some span -> (metric, self span)
          | None -> (metric, 0.0)))
    Metrics.per_layer

(* Parse time per query text, measured apart from Runner.prepare so
   the traced prepare span can be split into parse and plan. *)
let parse_estimates () =
  let t = Hashtbl.create 20 in
  List.iter
    (fun q ->
      let text = Xmark_core.Queries.text q in
      let samples =
        List.init 5 (fun _ ->
            let t0 = now () in
            ignore (Xmark_xquery.Parser.parse_query text);
            (now () -. t0) *. 1000.0)
      in
      Hashtbl.replace t q (Bench_stats.median samples))
    Q.queries;
  fun q -> Hashtbl.find t q

let split_prepare tr ~prepares =
  let pass_self, _ = Spans.self_times tr ~root_name:"pass" in
  let prepare_ms = Option.value ~default:0.0 (Hashtbl.find_opt pass_self "xquery.prepare") in
  let est = parse_estimates () in
  let parse_ms = List.fold_left (fun a q -> a +. est q) 0.0 prepares in
  let parse_ms = Float.min parse_ms prepare_ms in
  [ ("xquery.parse_ms", parse_ms); ("xquery.plan_ms", prepare_ms -. parse_ms) ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* GC words allocated while [f] runs. *)
let gc_words f =
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_words in
  let r = f () in
  (r, Gc.minor_words () -. minor0, (Gc.quick_stat ()).Gc.major_words -. major0)

(* --- query workloads ------------------------------------------------------- *)

(* A query workload: its factor and how its stores are laid out.
   mainmem-scale and sharded-k2 read the same document. *)
type layout = Stores of string list | Shards of int
type query_spec = { factor : float; layout : layout }

let query_specs =
  [
    ("paper-matrix", { factor = 0.01; layout = Stores Metrics.systems });
    ("mainmem-scale", { factor = 0.25; layout = Stores [ "D" ] });
    ("sharded-k2", { factor = 0.25; layout = Shards 2 });
  ]

let setup spec tr ~seed =
  match spec.layout with
  | Stores systems -> Q.store_env tr ~seed ~factor:spec.factor systems
  | Shards k -> Q.sharded_env tr ~seed ~factor:spec.factor ~k

(* Host probe samples taken in one pass of the query workloads, spread
   over its cells. *)
let probes_per_pass = 20

(* Run every cell [reps] times in a row (once unless [reps] says
   otherwise): per cell, the time of one execution in ms and every
   answer.  Only the program's calls are timed; answers are checked
   afterwards.  With [probes], a host probe sample follows every
   stride-th cell. *)
let timed_pass ?(run = Q.run_cell) ?reps ?probes cells =
  let stride = max 1 (Array.length cells / probes_per_pass) in
  Array.mapi
    (fun i c ->
      let n = match reps with None -> 1 | Some r -> r.(i) in
      let answers = Array.make n (Error "not run") in
      let t0 = now () in
      for k = 0 to n - 1 do
        answers.(k) <- (match run c with a -> Ok a | exception e -> Error (Printexc.to_string e))
      done;
      let ms = (now () -. t0) *. 1000.0 /. float_of_int n in
      if i mod stride = 0 then Option.iter (fun p -> p := Host_probe.sample () :: !p) probes;
      ((if Array.for_all Result.is_ok answers then ms else nan), answers))
    cells

let check_pass tally ~reference ~what cells results =
  Array.iteri
    (fun i c ->
      Array.iter
        (fun answer ->
          tally.attempted <- tally.attempted + 1;
          match answer with
          | Ok canonical ->
              if Q.digest canonical <> reference c.Q.query then
                fail tally
                  (Printf.sprintf "%s %s answer differs from single-store D" (Q.label c) what)
          | Error e -> fail tally (Printf.sprintf "%s %s raised %s" (Q.label c) what e))
        (snd results.(i)))
    cells

let pass_ms results =
  Array.fold_left (fun a (ms, _) -> if Float.is_finite ms then a +. ms else a) 0.0 results

(* A timed sample of a cell is a batch of back-to-back executions at
   least [min_batch_ms] long, so a cell of a few microseconds is not
   measured at the clock's resolution or at the mercy of one cache
   miss; its repetitions are fixed at set-up from the warm-up times. *)
let min_batch_ms = 2.0
let max_reps = 128

let reps_of_warm_ms ms =
  let rec go n = if n >= max_reps || float_of_int n *. ms >= min_batch_ms then n else go (2 * n) in
  if Float.is_finite ms && ms > 0.0 then go 1 else 1

let probe_samples () = List.init 25 (fun _ -> Host_probe.sample ())
let probe_ms samples = Bench_stats.median samples

(* An end-to-end value at the reference host speed, for a probe whose
   median was [probe_ms]: times shrink and rates grow on a host the
   probe finds slow. *)
let at_reference ~probe_ms (name, v) =
  let slow = probe_ms /. Host_probe.reference_ms in
  (name, if name = "ops_per_s" then v *. slow else v /. slow)

(* The median set-up, each at the processor speed probed around it. *)
let setup_at_reference samples =
  Bench_stats.median (List.map (fun (s, p) -> snd (at_reference ~probe_ms:p ("", s))) samples)

(* The values as the clock read them, beside the probe's median. *)
let report_measured ~probe ~setup_samples measured =
  say "set-up times as measured (s): %s; probe %s ms"
    (String.concat " " (List.rev_map (fun (s, _) -> Printf.sprintf "%.3f" s) setup_samples))
    (String.concat " " (List.rev_map (fun (_, p) -> Printf.sprintf "%.4f" p) setup_samples));
  say "%s" probe;
  List.iter (fun (name, v) -> say "measured %-25s %14.4f" name v) measured

(* Set up, warm-up pass included, timed.  The first set-up also fixes
   the reference answers, from a separately loaded single-store D.
   Returns the warm-up time of every cell too. *)
let timed_setup spec tally ~seed ~reference =
  Gc.compact ();
  let before = probe_samples () in
  let t0 = now () in
  let env = setup spec None ~seed in
  let warm = timed_pass env.Q.cells in
  let setup_s = now () -. t0 in
  let setup_s = (setup_s, probe_ms (before @ probe_samples ())) in
  let reference = match reference with Some r -> r | None -> Q.d_reference env.Q.dom in
  check_pass tally ~reference ~what:"warm-up" env.Q.cells warm;
  (env, setup_s, reference, Array.map fst warm)

let query_untraced name spec ~seed ~seconds =
  let tally = { attempted = 0; failed = 0; notes = [] } in
  let env = ref None and reference = ref None and setup_samples = ref [] and warm = ref [] in
  for _ = 1 to setups do
    env := None;  (* the previous set-up is garbage before the next one starts *)
    let e, s, r, w = timed_setup spec tally ~seed ~reference:!reference in
    env := Some e;
    reference := Some r;
    setup_samples := s :: !setup_samples;
    warm := w :: !warm
  done;
  let env = Option.get !env and reference = Option.get !reference in
  let setup_samples = !setup_samples in
  let cells = env.Q.cells in
  let reps =
    Array.mapi
      (fun i _ -> reps_of_warm_ms (Bench_stats.median (List.map (fun w -> w.(i)) !warm)))
      cells
  in
  let samples = Array.make (Array.length cells) [] in
  let passes = ref [] and probes = ref [] in
  let t_start = now () in
  let continue () =
    match !passes with
    | [] -> true
    | last :: _ -> now () -. t_start +. last <= seconds
  in
  while continue () do
    (* every pass starts from the same collected heap, not from the
       garbage of the set-ups or of the pass before *)
    Gc.compact ();
    let results = timed_pass ~reps ~probes cells in
    check_pass tally ~reference ~what:"timed" cells results;
    Array.iteri
      (fun i (ms, _) -> if Float.is_finite ms then samples.(i) <- ms :: samples.(i))
      results;
    passes := pass_ms results /. 1000.0 :: !passes
  done;
  let medians =
    Array.to_list
      (Array.mapi
         (fun i c -> (c, match samples.(i) with [] -> nan | s -> Bench_stats.median s))
         cells)
  in
  let ok_medians sel =
    List.filter_map
      (fun (c, m) -> if sel c && Float.is_finite m then Some (Float.max m 1e-3) else None)
      medians
  in
  let geomean sel = match ok_medians sel with [] -> nan | xs -> Bench_stats.geomean xs in
  let executions =
    Array.fold_left ( + ) 0 (Array.mapi (fun i s -> reps.(i) * List.length s) samples)
  in
  (* the typical pass: every cell at its median, so a burst of host
     noise that hits one cell in one pass does not move it *)
  let typical_pass_s =
    List.fold_left (fun a (_, m) -> if Float.is_finite m then a +. m else a) 0.0 medians /. 1000.0
  in
  let measured =
    [
      ("pass_s", typical_pass_s);
      ("ops_per_s", float_of_int (Array.length cells) /. typical_pass_s);
      ("query_geomean_ms", geomean (fun _ -> true));
      ("join_geomean_ms", geomean (fun c -> Q.is_join c.Q.query));
      ("nonjoin_geomean_ms", geomean (fun c -> not (Q.is_join c.Q.query)));
    ]
  in
  let probe_ms = probe_ms !probes in
  let metrics =
    ("setup_s", setup_at_reference setup_samples)
    :: ("peak_rss_mb", peak_rss_mb ())
    :: List.map (at_reference ~probe_ms) measured
  in
  say "provenance %s"
    (provenance ~workload:name ~seed:(Int64.to_int seed) ~factor:spec.factor ~trace:false
       ~runs:(List.length !passes) ~wal:None);
  say
    "cells %d (%d batched, up to %d executions per sample), passes %d, executions %d; pass \
     times (s, one execution per cell): %s"
    (Array.length cells)
    (Array.fold_left (fun a r -> if r > 1 then a + 1 else a) 0 reps)
    (Array.fold_left max 1 reps) (List.length !passes) executions
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !passes));
  report_measured ~setup_samples measured
    ~probe:
      (Printf.sprintf "probe over the timed part: %.4f ms (reference %.1f ms)" probe_ms
         Host_probe.reference_ms);
  emit ~workload:name ~tally metrics Metrics.end_to_end

let query_traced name spec ~seed ~trace_out =
  let tally = { attempted = 0; failed = 0; notes = [] } in
  let tr = Spans.create () in
  Gc.compact ();
  Xmark_stats.enable ();
  let snap = Xmark_stats.snapshot () in
  let env = Spans.with_span tr "setup" (fun () -> setup spec (Some tr) ~seed) in
  let sax_events = stats_delta snap "sax_events" in
  Xmark_stats.disable ();
  let reference = Q.d_reference env.Q.dom in
  let cells = env.Q.cells in
  check_pass tally ~reference ~what:"warm-up" cells (timed_pass cells);
  let t0 = now () in
  let untraced = timed_pass cells in
  let untraced_ms = (now () -. t0) *. 1000.0 in
  check_pass tally ~reference ~what:"untraced" cells untraced;
  let acc = Q.fresh_acc () in
  Xmark_stats.enable ();
  let snap = Xmark_stats.snapshot () in
  let traced, minor, major =
    gc_words (fun () ->
        Spans.with_span tr "pass" (fun () ->
            let i = ref 0 in
            timed_pass
              ~run:(fun c ->
                incr i;
                Spans.op tr !i (fun () -> Q.traced_cell tr acc c))
              cells))
  in
  check_pass tally ~reference ~what:"traced" cells traced;
  let counters = counter_metrics snap in
  Xmark_stats.disable ();
  let _, traced_ms = Spans.self_times tr ~root_name:"pass" in
  let ops = float_of_int (Array.length cells) in
  let extra =
    [
      ("xmlgen.doc_bytes", float_of_int env.Q.doc_bytes);
      ("xml.sax_events", float_of_int sax_events);
      ("xquery.metadata_accesses", float_of_int acc.Q.metadata_accesses);
      ("xml.result_bytes", float_of_int acc.Q.result_bytes);
      ("gc.minor_words", minor /. ops);
      ("gc.major_words", major /. ops);
      ("shard.leg_skew", Bench_stats.mean acc.Q.leg_skews);
      ("shard.broadcast_bytes", float_of_int acc.Q.broadcast_bytes);
      ("trace.pass_ms", traced_ms);
      ("trace.untraced_pass_ms", untraced_ms);
      ("trace.overhead_share", (traced_ms -. untraced_ms) /. untraced_ms);
    ]
    @ List.map (fun (s, b) -> ("store.db_bytes." ^ s, float_of_int b)) env.Q.db_bytes
    @ split_prepare tr ~prepares:acc.Q.prepares
    @ counters
  in
  Spans.write_jsonl tr trace_out;
  say "provenance %s"
    (provenance ~workload:name ~seed:(Int64.to_int seed) ~factor:spec.factor ~trace:true ~runs:1
       ~wal:None);
  emit ~workload:name ~tally (layer_metrics tr ~extra) Metrics.per_layer

(* --- service-mixed --------------------------------------------------------- *)

let succeeded (s : Svc.sample) =
  match s.Svc.status with
  | Svc.Ok_reply | Svc.Ok_commit -> true
  | Svc.Conflict | Svc.Failed _ -> false

let count status samples = List.length (List.filter (fun s -> s.Svc.status = status) samples)

(* Client latency in ms of the successful requests [sel] picks. *)
let latencies sel samples =
  List.filter_map (fun s -> if succeeded s && sel s then Some s.Svc.client_ms else None) samples

(* Median client latency per read query, by query number. *)
let read_medians samples =
  List.filter_map
    (fun q ->
      match latencies (fun s -> s.Svc.cls = Xmark_service.Workload.Query q) samples with
      | [] -> None
      | l -> Some (q, Bench_stats.median l))
    Svc.read_classes

let count_failures tally samples =
  List.iter
    (fun (s : Svc.sample) ->
      tally.attempted <- tally.attempted + 1;
      match s.Svc.status with
      | Svc.Failed msg ->
          fail tally (Printf.sprintf "%s: %s" (Xmark_service.Workload.class_label s.Svc.cls) msg)
      | Svc.Ok_reply | Svc.Ok_commit | Svc.Conflict -> ())
    samples

let check_rounds tally rounds =
  List.iter
    (fun r ->
      if r.Svc.mismatches > 0 then
        for _ = 1 to r.Svc.mismatches do
          fail tally "two replies for one query at one epoch differ"
        done)
    rounds

(* The median and the highest tail percentile the sample supports,
   with the sample count. *)
let report_percentiles label values tails =
  let n = List.length values in
  if n = 0 then say "%s: no samples" label
  else begin
    say "%s_p50_ms %.4f ms (n=%d)" label (Bench_stats.median values) n;
    match Bench_stats.highest_supported ~n tails with
    | Some p ->
        say "%s_p%g_ms %.4f ms (n=%d, %d beyond)" label p (Bench_stats.percentile p values) n
          (Bench_stats.beyond ~n p)
    | None -> say "%s: %d samples support no tail percentile" label n
  end

let service_untraced ~seed ~seconds ~workdir =
  let tally = { attempted = 0; failed = 0; notes = [] } in
  let seed_i = Int64.to_int seed in
  let setup_once i =
    let dir = Filename.concat workdir (Printf.sprintf "wal-%d" i) in
    Gc.compact ();
    let before = probe_samples () in
    let t0 = now () in
    let env = Svc.setup None ~seed ~dir in
    Svc.warm_up env;
    let setup_s = now () -. t0 in
    (env, (setup_s, probe_ms (before @ probe_samples ())))
  in
  let rec do_setups i samples =
    let env, s = setup_once i in
    if i = setups then (env, s :: samples)
    else begin
      Svc.stop env;
      rm_rf env.Svc.dir;
      do_setups (i + 1) (s :: samples)
    end
  in
  let env, setup_samples = do_setups 1 [] in
  let sink = { Svc.lock = Mutex.create (); samples = [] } in
  let probes = ref [] in
  let rounds =
    Svc.run_rounds env sink ~seed:seed_i
      ~rounds:(Svc.rounds_per_second * int_of_float seconds)
      ~between:(fun () -> probes := probe_samples () @ !probes)
  in
  let samples = sink.Svc.samples in
  count_failures tally samples;
  check_rounds tally rounds;
  let acked = count Svc.Ok_commit samples and reads_ok = count Svc.Ok_reply samples in
  tally.attempted <- tally.attempted + 1;
  List.iter (fail tally) (Svc.durability_gate env ~acked);
  let medians = read_medians samples in
  let geomean sel =
    match
      List.filter_map (fun (q, m) -> if sel q then Some (Float.max m 1e-3) else None) medians
    with
    | [] -> nan
    | xs -> Bench_stats.geomean xs
  in
  let elapsed = List.fold_left (fun a r -> a +. r.Svc.elapsed_s) 0.0 rounds in
  let measured =
    [
      ("pass_s", Bench_stats.median (List.map (fun r -> r.Svc.elapsed_s) rounds));
      ("ops_per_s", float_of_int (reads_ok + acked) /. elapsed);
      ("query_geomean_ms", geomean (fun _ -> true));
      ("join_geomean_ms", geomean Q.is_join);
      ("nonjoin_geomean_ms", geomean (fun q -> not (Q.is_join q)));
    ]
  in
  let probe_ms = probe_ms !probes in
  let metrics =
    ("setup_s", setup_at_reference setup_samples)
    :: ("peak_rss_mb", peak_rss_mb ())
    :: List.map (at_reference ~probe_ms) measured
  in
  say "provenance %s"
    (provenance ~workload:"service-mixed" ~seed:seed_i ~factor:Svc.factor ~trace:false
       ~runs:(List.length rounds) ~wal:(Some workdir));
  say
    "closed loop: %d clients, %d rounds of %d requests: %d reads, %d commits, %d typed write \
     conflicts (expected answers, not failures)"
    Svc.clients (List.length rounds) Svc.round_ops reads_ok acked (count Svc.Conflict samples);
  say "read medians: %s"
    (String.concat ", "
       (List.map
          (fun (q, m) ->
            Printf.sprintf "Q%d %.3f ms (n=%d)" q m
              (List.length (latencies (fun s -> s.Svc.cls = Xmark_service.Workload.Query q) samples)))
          medians));
  report_percentiles "read"
    (latencies (fun s -> s.Svc.status = Svc.Ok_reply) samples)
    [ 99.0; 95.0; 90.0 ];
  report_percentiles "commit"
    (latencies (fun s -> s.Svc.status = Svc.Ok_commit) samples)
    [ 95.0; 90.0 ];
  report_measured ~setup_samples measured
    ~probe:
      (Printf.sprintf "probe between the rounds: %.4f ms (reference %.1f ms)" probe_ms
         Host_probe.reference_ms);
  rm_rf env.Svc.dir;
  emit ~workload:"service-mixed" ~tally metrics Metrics.end_to_end

let service_traced ~seed ~seconds ~workdir ~trace_out =
  let tally = { attempted = 0; failed = 0; notes = [] } in
  let seed_i = Int64.to_int seed in
  let tr = Spans.create () in
  Gc.compact ();
  Xmark_stats.enable ();
  let snap = Xmark_stats.snapshot () in
  let env =
    Spans.with_span tr "setup" (fun () ->
        Svc.setup (Some tr) ~seed ~dir:(Filename.concat workdir "wal-served"))
  in
  let sax_events = stats_delta snap "sax_events" in
  Xmark_stats.disable ();
  Svc.warm_up env;
  (* the served path, untraced: the program's own reply counters *)
  let sink = { Svc.lock = Mutex.create (); samples = [] } in
  let rounds =
    Svc.run_rounds env sink ~seed:seed_i ~rounds:(Svc.rounds_per_second * int_of_float seconds / 2)
  in
  let samples = sink.Svc.samples in
  count_failures tally samples;
  check_rounds tally rounds;
  let mean f = Bench_stats.mean (List.map f (List.filter succeeded samples)) in
  let totals = Xmark_service.Server.totals env.Svc.server in
  let hits = totals.Xmark_service.Server.plan_hits
  and misses = totals.Xmark_service.Server.plan_misses in
  let acked = count Svc.Ok_commit samples in
  let dom = env.Svc.dom in
  List.iter (fail tally) (Svc.durability_gate env ~acked);
  (* the replay: once untraced, once traced, on two writers from the same base *)
  let open_fresh name = let dir = Filename.concat workdir name in (dir, Svc.open_writer ~dir dom) in
  let dir_u, w_u = open_fresh "wal-replay-untraced" in
  let dir_t, w_t = open_fresh "wal-replay-traced" in
  let ops = Svc.replay_ops ~seed:seed_i ~write_targets:(Writer.write_targets w_u) in
  let acc_u = Svc.fresh_replay_acc () in
  let s0 = Writer.publish w_u in
  let t0 = now () in
  let final_u = Svc.replay None acc_u ~writer:w_u ~session:s0 ~dir:dir_u ops in
  let untraced_ms = (now () -. t0) *. 1000.0 in
  let acc = Svc.fresh_replay_acc () in
  let s0 = Writer.publish w_t in
  Xmark_stats.enable ();
  let snap = Xmark_stats.snapshot () in
  let final_t, minor, major =
    gc_words (fun () ->
        Spans.with_span tr "pass" (fun () ->
            Svc.replay (Some tr) acc ~writer:w_t ~session:s0 ~dir:dir_t ops))
  in
  let counters = counter_metrics snap in
  Xmark_stats.disable ();
  tally.attempted <- tally.attempted + List.length ops;
  let final = Svc.digests final_t in
  if Svc.digests final_u <> final then
    fail tally "traced and untraced replays end in different stores";
  Writer.close w_u;
  Writer.close w_t;
  let t0 = now () in
  let reopened, info =
    Writer.open_dir ~dir:dir_t ~bootstrap:(fun () -> failwith "replay WAL vanished") ()
  in
  let reopen_ms = (now () -. t0) *. 1000.0 in
  if info.Writer.replayed <> acc.Svc.commits || Svc.digests (Writer.publish reopened) <> final then
    fail tally "reopened replay store differs from the replayed one";
  let t0 = now () in
  (match Writer.checkpoint reopened with
  | Ok _ -> ()
  | Error e -> fail tally ("checkpoint: " ^ Xmark_service.Protocol.error_to_string e));
  let checkpoint_ms = (now () -. t0) *. 1000.0 in
  if Svc.digests (Writer.publish reopened) <> final then fail tally "checkpointed store differs";
  Writer.close reopened;
  let _, traced_ms = Spans.self_times tr ~root_name:"pass" in
  let n_ops = float_of_int (List.length ops) in
  let extra =
    [
      ("xmlgen.doc_bytes", float_of_int env.Svc.doc_bytes);
      ("xml.sax_events", float_of_int sax_events);
      ("store.db_bytes.D", float_of_int env.Svc.db_bytes);
      ("xquery.metadata_accesses", float_of_int acc.Svc.metadata_accesses);
      ("xml.result_bytes", float_of_int acc.Svc.result_bytes);
      ("gc.minor_words", minor /. n_ops);
      ("gc.major_words", major /. n_ops);
      ("wal.bytes_per_commit", ratio acc.Svc.wal_bytes acc.Svc.commits);
      ("service.queue_ms", mean (fun s -> s.Svc.queue_ms));
      ("service.handle_ms", mean (fun s -> s.Svc.server_ms -. s.Svc.queue_ms));
      ("service.plan_hit_ratio", ratio hits (hits + misses));
      ("wire.overhead_ms", mean (fun s -> s.Svc.client_ms -. s.Svc.server_ms));
      ("wire.request_bytes", float_of_int acc.Svc.request_bytes);
      ("wire.response_bytes", float_of_int acc.Svc.response_bytes);
      ("writer.reopen_ms", reopen_ms);
      ("writer.checkpoint_ms", checkpoint_ms);
      ("trace.pass_ms", traced_ms);
      ("trace.untraced_pass_ms", untraced_ms);
      ("trace.overhead_share", (traced_ms -. untraced_ms) /. untraced_ms);
    ]
    @ split_prepare tr ~prepares:acc.Svc.prepares
    @ counters
  in
  Spans.write_jsonl tr trace_out;
  say "provenance %s"
    (provenance ~workload:"service-mixed" ~seed:seed_i ~factor:Svc.factor ~trace:true
       ~runs:(List.length rounds) ~wal:(Some workdir));
  say "replay: %d requests, %d commits, %d typed write conflicts" (List.length ops) acc.Svc.commits
    acc.Svc.conflicts;
  List.iter rm_rf [ env.Svc.dir; dir_u; dir_t ];
  emit ~workload:"service-mixed" ~tally (layer_metrics tr ~extra) Metrics.per_layer

(* --- command line ---------------------------------------------------------- *)

let workloads = List.map fst query_specs @ [ "service-mixed" ]

let usage () =
  prerr_endline
    ("usage: xbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--workdir DIR]\n\
     \       xbench.exe --self-test\n\
      workloads: " ^ String.concat ", " workloads);
  exit 2

let self_test () =
  match Bench_stats.self_test () with
  | [] -> print_endline "xbench self-test: ok"
  | failures ->
      List.iter (fun f -> prerr_endline ("xbench self-test FAILED: " ^ f)) failures;
      exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--self-test" ] then self_test ()
  else begin
    let rec parse acc = function
      | [] -> acc
      | key :: value :: rest when String.starts_with ~prefix:"--" key ->
          parse ((key, value) :: acc) rest
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
    let int_arg key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
    let workload = get "--workload" in
    let seed = Int64.of_int (int_arg "--seed") in
    let seconds = float_of_int (int_arg "--seconds") in
    let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
    let workdir = Option.value ~default:".xbench" (List.assoc_opt "--workdir" opts) in
    if not (List.mem workload workloads) || seconds <= 0.0 then usage ();
    (* the run refuses to report with broken statistics *)
    if Bench_stats.self_test () <> [] then self_test ();
    (* spans are kept in [workdir]; WAL directories and sockets live in a
       per-process directory under it, removed at exit *)
    let trace_out = Filename.concat workdir (Printf.sprintf "trace-%s.jsonl" workload) in
    let workdir = Filename.concat workdir (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
    mkdir_p workdir;
    at_exit (fun () -> try rm_rf workdir with _ -> ());
    say "xbench workload=%s seed=%Ld seconds=%g trace=%b" workload seed seconds trace;
    match List.assoc_opt workload query_specs, trace with
    | Some spec, false -> query_untraced workload spec ~seed ~seconds
    | Some spec, true -> query_traced workload spec ~seed ~trace_out
    | None, false -> service_untraced ~seed ~seconds ~workdir
    | None, true -> service_traced ~seed ~seconds ~workdir ~trace_out
  end
