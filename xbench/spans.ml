(* Spans recorded by the traced run, around calls into the program's
   public functions.  A span has a name, a start, an end, the span that
   caused it and the operation it belongs to; spans stay in memory and
   are written out when the run ends.

   A layer's self time is its duration minus the part its child spans
   cover.  Layer spans carry dotted names ("xquery.execute"); the
   benchmark's own structural spans ("pass", "op", "setup") do not, and
   their self time is what no layer accounts for: the unattributed
   share. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 at the root *)
  op : int;  (* the operation the span belongs to; -1 outside one *)
  start : float;
  mutable stop : float;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable stack : span list;
  mutable next_id : int;
  mutable op : int;
}

let create () = { spans = []; stack = []; next_id = 0; op = -1 }

let now = Unix.gettimeofday

let with_span t name f =
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let s = { id = t.next_id; name; parent; op = t.op; start = now (); stop = nan } in
  t.next_id <- t.next_id + 1;
  t.spans <- s :: t.spans;
  t.stack <- s :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop <- now ();
      t.stack <- List.tl t.stack)
    f

(* [op t i f] runs [f] as operation [i]: every span opened inside it,
   the "op" span included, carries that id. *)
let op t i f =
  let saved = t.op in
  t.op <- i;
  Fun.protect ~finally:(fun () -> t.op <- saved) (fun () -> with_span t "op" f)

let is_layer name = String.contains name '.'

let duration_ms s = (s.stop -. s.start) *. 1000.0

(* Self time per span name, in ms, over every span under [root_name]
   roots (inclusive), plus the roots' total duration. *)
let self_times t ~root_name =
  let spans = List.rev t.spans in
  let children_ms = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children_ms s.parent
          (duration_ms s +. Option.value ~default:0.0 (Hashtbl.find_opt children_ms s.parent)))
    spans;
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec root_of s =
    if s.parent < 0 then s else root_of (Hashtbl.find by_id s.parent)
  in
  let self = Hashtbl.create 16 in
  let total = ref 0.0 in
  List.iter
    (fun s ->
      if (root_of s).name = root_name then begin
        if s.parent < 0 then total := !total +. duration_ms s;
        let own =
          duration_ms s -. Option.value ~default:0.0 (Hashtbl.find_opt children_ms s.id)
        in
        Hashtbl.replace self s.name
          (own +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name))
      end)
    spans;
  (self, !total)

(* The share of the roots' time spent outside any layer span. *)
let unattributed_share t ~root_name =
  let self, total = self_times t ~root_name in
  if total <= 0.0 then 0.0
  else
    Hashtbl.fold (fun name ms acc -> if is_layer name then acc else acc +. ms) self 0.0
    /. total

let write_jsonl t path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": \"%s\", \"parent\": %d, \"op\": %d, \"start\": %.6f, \
             \"end\": %.6f}\n"
            s.id s.name s.parent s.op s.start s.stop)
        (List.rev t.spans))
