module Dom = Xmark_xml.Dom
module Symbol = Xmark_xml.Symbol
module Stats = Xmark_stats

type level = [ `Full | `Id_only | `Plain ]

type node = Dom.node

module IMap = Map.Make (Int)
module SMap = Map.Make (String)

type t = {
  root : Dom.node;
  lvl : level;
  ids : (string, Dom.node) Hashtbl.t option;
      (* the ID index of the load; never written afterwards, so every
         epoch derived from this store shares it *)
  id_delta : Dom.node option SMap.t;
      (* changes since the load: the id's current element, or [None]
         once it left the document *)
  tags : Dom.node list array option;
      (* symbol-indexed extents of the load in document order; shorter
         than the symbol table only when tags were interned after it *)
  tag_base : Dom.node list IMap.t;
      (* tag -> an extent an earlier epoch merged, replacing the load's *)
  tag_delta : Dom.node option IMap.t IMap.t;
      (* tag -> order -> the element now at that order ([None]: gone),
         for every change since the tag's base *)
  versions : Dom.node IMap.t;
      (* order -> current version of every element an epoch replaced;
         shared nodes point at an older node of the same order *)
  merged : (int, Dom.node list) Hashtbl.t;
      (* extents of the tags [tag_delta] touches, merged on first use *)
  bytes : int;
  nodes : int;
  keyword_indexes : (Symbol.t, (string, Dom.node list) Hashtbl.t) Hashtbl.t;
      (* per-tag inverted index over string values; built lazily (System D's
         optional full-text access path, paper Section 6.9) *)
  lock : Mutex.t;
      (* guards [merged] and [keyword_indexes], the only state a store
         writes on its query path, so this lock is what makes a store
         shareable across the query service's domains *)
}

let node_bytes n =
  match n.Dom.desc with
  | Dom.Text s -> 24 + String.length s
  | Dom.Element e ->
      (* the tag is interned: one immediate word, in the 64 *)
      64 + List.fold_left (fun a (k, v) -> a + 32 + String.length k + String.length v) 0 e.Dom.attrs

let estimate_bytes root = Dom.fold (fun acc n -> acc + node_bytes n) 0 root

let create ?id_index ~level root =
  if root.Dom.order < 0 then ignore (Dom.index root);
  let nodes = Dom.size root in
  let id_index = Option.value id_index ~default:(level <> `Plain) in
  let ids =
    if not id_index then None
    else begin
      let h = Hashtbl.create 4096 in
      Dom.iter
        (fun n -> match Dom.attr n "id" with Some id -> Hashtbl.replace h id n | None -> ())
        root;
      Some h
    end
  in
  let tags =
    match level with
    | `Plain | `Id_only -> None
    | `Full ->
        (* every tag in the document is already interned, so the symbol
           count bounds the extent array *)
        let extents = Array.make (Symbol.count ()) [] in
        Dom.iter
          (fun n ->
            if Dom.is_element n then begin
              let tag = (Dom.name_sym n :> int) in
              Array.unsafe_set extents tag (n :: Array.unsafe_get extents tag)
            end)
          root;
        Some (Array.map List.rev extents)
  in
  { root; lvl = level; ids; id_delta = SMap.empty; tags; tag_base = IMap.empty;
    tag_delta = IMap.empty; versions = IMap.empty; merged = Hashtbl.create 1;
    bytes = estimate_bytes root; nodes; keyword_indexes = Hashtbl.create 4;
    lock = Mutex.create () }

let of_string ~level s = create ~level (Xmark_xml.Sax.parse_string s)

let level t = t.lvl

let dom_root t = t.root

let root t = t.root

let kind _ n = if Dom.is_element n then `Element else `Text

let name _ n = Dom.name_sym n

let text _ (n : node) = match n.Dom.desc with Dom.Text s -> s | Dom.Element _ -> ""

let children _ n =
  let cs = Dom.children n in
  if Stats.enabled () then Stats.incr ~by:(List.length cs) "nodes_scanned";
  cs

(* A shared node keeps the parent pointer it was built with; the
   epoch's [versions] map names that parent's current version.  A
   bulkloaded store has an empty map. *)
let parent t (n : node) =
  match n.Dom.parent with
  | Some p as some when not (IMap.is_empty t.versions) -> (
      match IMap.find_opt p.Dom.order t.versions with Some v -> Some v | None -> some)
  | p -> p

let attributes _ (n : node) =
  match n.Dom.desc with Dom.Element e -> e.Dom.attrs | Dom.Text _ -> []

let attribute _ n key = Dom.attr n key

let order _ (n : node) = n.Dom.order

let string_value _ n = Dom.string_value n

let find_id t id =
  match SMap.find_opt id t.id_delta with
  | Some hit -> hit
  | None -> ( match t.ids with Some h -> Hashtbl.find_opt h id | None -> None)

let id_lookup t id =
  match (t.lvl, t.ids) with
  | `Plain, _ | _, None -> None
  | (`Full | `Id_only), Some _ ->
      Stats.incr "index_lookups";
      let hit = find_id t id in
      if hit <> None then Stats.incr "index_hits";
      Some hit

(* A tag's base extent with the changes since it applied: one merge of
   two order-sorted sequences. *)
let merge base delta =
  let rec go acc base delta =
    match (base, delta) with
    | _, [] -> List.rev_append acc base
    | [], (_, v) :: ds -> go (push acc v) [] ds
    | (b : node) :: bs, (o, v) :: ds ->
        if b.Dom.order < o then go (b :: acc) bs delta
        else if b.Dom.order = o then go (push acc v) bs ds
        else go (push acc v) base ds
  and push acc = function Some n -> n :: acc | None -> acc in
  go [] base (IMap.bindings delta)

(* [tag]'s extent; [locked] says whether the caller holds [t.lock]. *)
let extent ~locked t tag =
  match t.tags with
  | None -> None
  | Some extents -> (
      Stats.incr "summary_consultations";
      let i = (tag : Symbol.t :> int) in
      let base =
        match IMap.find_opt i t.tag_base with
        | Some l -> l
        | None -> if i < Array.length extents then extents.(i) else []
      in
      match IMap.find_opt i t.tag_delta with
      | None -> Some base
      | Some delta ->
          let get () =
            match Hashtbl.find_opt t.merged i with
            | Some l -> l
            | None ->
                let l = merge base delta in
                Hashtbl.replace t.merged i l;
                l
          in
          Some (if locked then get () else Mutex.protect t.lock get))

let tag_nodes t tag = extent ~locked:false t tag

let tag_count t tag = Option.map List.length (tag_nodes t tag)

let subtree_interval t (n : node) =
  match t.lvl with
  | `Plain | `Id_only -> None
  | `Full ->
      Stats.incr "summary_consultations";
      Some (n.Dom.order, Dom.subtree_end n)

(* Tokens are maximal alphanumeric runs, lowercased. *)
let tokens s =
  let out = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' -> Buffer.add_char buf c
      | 'A' .. 'Z' -> Buffer.add_char buf (Char.lowercase_ascii c)
      | _ -> flush ())
    s;
  flush ();
  !out

let keyword_index t tag =
  (* the whole lookup-or-build runs under the lock: concurrent readers
     of a warm index only pay an uncontended lock, and a cold index is
     built exactly once even when several domains ask for it at once *)
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.keyword_indexes tag with
      | Some idx -> Some idx
      | None -> (
          match extent ~locked:true t tag with
          | None -> None
          | Some extent ->
              let idx = Hashtbl.create 4096 in
              List.iter
                (fun n ->
                  let seen = Hashtbl.create 64 in
                  List.iter
                    (fun w ->
                      if not (Hashtbl.mem seen w) then begin
                        Hashtbl.add seen w ();
                        Hashtbl.replace idx w
                          (n :: Option.value ~default:[] (Hashtbl.find_opt idx w))
                      end)
                    (tokens (Dom.string_value n)))
                extent;
              (* extents are in document order, so bucket lists reverse to it *)
              Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) idx;
              Hashtbl.replace t.keyword_indexes tag idx;
              Some idx))

let keyword_search t ~tag ~word =
  match keyword_index t tag with
  | None -> None
  | Some idx ->
      Stats.incr "index_lookups";
      let hits = Option.value ~default:[] (Hashtbl.find_opt idx (String.lowercase_ascii word)) in
      if hits <> [] then Stats.incr "index_hits";
      Some hits

(* Node handles are pointers, and an epoch of the write path numbers
   its nodes with gaps, so there is no dense id algebra to vectorize
   over. *)
let vec _ = None

let size_bytes t = t.bytes

let node_count t = t.nodes

let description t =
  match t.lvl with
  | `Full -> "main-memory DOM + structural summary + ID index (System D)"
  | `Id_only -> "main-memory DOM + ID index (System E)"
  | `Plain -> "main-memory DOM, navigation only (System F)"

(* --- epochs ---------------------------------------------------------------- *)

type change = {
  new_root : Dom.node;
  replaced : (Dom.node * Dom.node) list;
  added : Dom.node list;
  removed : Dom.node list;
}

let derive t c =
  let merged, keyword_indexes =
    Mutex.protect t.lock (fun () -> (Hashtbl.copy t.merged, Hashtbl.copy t.keyword_indexes))
  in
  let ids = ref t.id_delta and tags = ref t.tag_delta and versions = ref t.versions in
  let bases = ref t.tag_base and bytes = ref t.bytes and nodes = ref t.nodes in
  let touched = Hashtbl.create 8 in
  let note_tag n v =
    let tag = (Dom.name_sym n :> int) in
    if not (Hashtbl.mem touched tag) then begin
      Hashtbl.replace touched tag ();
      (* an extent a reader merged becomes the tag's base, so a merge
         walks the changes since the last merge, not all since the load *)
      match Hashtbl.find_opt merged tag with
      | Some l ->
          bases := IMap.add tag l !bases;
          tags := IMap.remove tag !tags
      | None -> ()
    end;
    if t.tags <> None then
      tags :=
        IMap.update tag
          (fun d -> Some (IMap.add n.Dom.order v (Option.value d ~default:IMap.empty)))
          !tags
  in
  let note_id n v =
    match Dom.attr n "id" with
    | Some id when t.ids <> None -> ids := SMap.add id v !ids
    | Some _ | None -> ()
  in
  (* removals first: a replacement or insertion may reuse their orders *)
  List.iter
    (Dom.iter (fun n ->
         bytes := !bytes - node_bytes n;
         decr nodes;
         if Dom.is_element n then begin
           note_tag n None;
           note_id n None;
           versions := IMap.remove n.Dom.order !versions
         end))
    c.removed;
  List.iter
    (fun (old, n) ->
      bytes := !bytes + node_bytes n - node_bytes old;
      note_id old None;
      note_tag n (Some n);
      note_id n (Some n);
      versions := IMap.add n.Dom.order n !versions)
    c.replaced;
  List.iter
    (Dom.iter (fun n ->
         bytes := !bytes + node_bytes n;
         incr nodes;
         if Dom.is_element n then begin
           note_tag n (Some n);
           note_id n (Some n)
         end))
    c.added;
  (* what the previous epoch computed lazily stays valid for every tag
     none of whose elements changed *)
  Hashtbl.filter_map_inplace (fun k l -> if Hashtbl.mem touched k then None else Some l) merged;
  Hashtbl.filter_map_inplace
    (fun (k : Symbol.t) idx -> if Hashtbl.mem touched (k :> int) then None else Some idx)
    keyword_indexes;
  { t with
    root = c.new_root;
    id_delta = !ids;
    tag_base = !bases;
    tag_delta = !tags;
    versions = !versions;
    merged;
    bytes = !bytes;
    nodes = !nodes;
    keyword_indexes;
    lock = Mutex.create () }
