module Dom = Xmark_xml.Dom

type fault =
  | Unknown_auction of string
  | Unknown_person of string
  | Auction_closed of string
  | No_bids of string
  | Missing_section of string
  | Invalid of string

exception Update_error of fault

let fault_to_string = function
  | Unknown_auction id -> Printf.sprintf "no such open auction %s" id
  | Unknown_person id -> Printf.sprintf "no such person %s" id
  | Auction_closed id -> Printf.sprintf "auction %s is already closed" id
  | No_bids id -> Printf.sprintf "auction %s has no bids; cannot close" id
  | Missing_section tag -> Printf.sprintf "document has no <%s> section" tag
  | Invalid msg -> msg

let fail f = raise (Update_error f)
let err fmt = Printf.ksprintf (fun s -> fail (Invalid s)) fmt

module MM = Backend_mainmem

type session = {
  mutable store : MM.t;  (* the current epoch; replaced, never written, per update *)
  mutable persons : int;  (* highest person<i> suffix; the next register takes i+1 *)
  auctions : int;
      (* highest open_auction<i> suffix of the opened document: no update
         creates auctions, so this is a high-water mark *)
  closed_ids : (string, unit) Hashtbl.t;
      (* ids moved to closed_auctions this session; closed_auction elements
         carry no id attribute, so the distinction between "never existed"
         and "was closed" needs remembering *)
}

let child_el n tag = List.find_opt (fun c -> Dom.name c = tag) (Dom.children n)

let require_section root tag =
  match child_el root tag with
  | Some s -> s
  | None -> fail (Missing_section tag)

let suffix prefix id =
  let plen = String.length prefix in
  if String.length id > plen && String.sub id 0 plen = prefix then
    int_of_string_opt (String.sub id plen (String.length id - plen))
  else None

(* The gap numbering: orders step by [stride], so [stride - 1] free
   orders follow every node of the opened document, and the region past
   the last node runs up to [max_int].  Inserted subtrees are numbered
   consecutively from the start of a gap, so appends at one spot use it
   up linearly; at half the int range spread over the document the gap
   outlasts any realistic run of commits. *)
let open_session ?(level = `Full) root =
  if Dom.name root <> "site" then err "not a benchmark document (root is <%s>)" (Dom.name root);
  ignore (Dom.index ~stride:(max 2 (max_int / 2 / (Dom.size root + 1))) root);
  let persons = ref (-1) and auctions = ref (-1) in
  let bump best prefix id =
    match suffix prefix id with Some k -> best := max !best k | None -> ()
  in
  Dom.iter
    (fun n ->
      match Dom.attr n "id" with
      | Some id when Dom.name n = "person" -> bump persons "person" id
      | Some id when Dom.name n = "open_auction" -> bump auctions "open_auction" id
      | Some _ | None -> ())
    root;
  {
    store = MM.create ~id_index:true ~level root;
    persons = !persons;
    auctions = !auctions;
    closed_ids = Hashtbl.create 64;
  }

let of_string ?level s = open_session ?level (Xmark_xml.Sax.parse_string s)
let store t = t.store
let root t = MM.dom_root t.store
let level t = MM.level t.store
let id_bounds t = (t.auctions + 1, t.persons + 1)

let find_by_id t id = MM.find_id t.store id

(* --- path copying ----------------------------------------------------------- *)

(* Nothing below writes a node the current store can reach: changed
   elements get new versions ({!Dom.version}), and only fields of those
   and of freshly built nodes are set. *)

(* The ancestors of [n] in the current epoch, nearest first. *)
let ancestors t n =
  let rec up acc n =
    match MM.parent t.store n with Some p -> up (p :: acc) p | None -> List.rev acc
  in
  up [] n

(* The first order past [n]'s subtree that another node owns: the order
   of the next node in document order outside [n]'s subtree, [max_int]
   when there is none.  [ancs] are [n]'s ancestors, nearest first. *)
let rec upper ancs n =
  match ancs with
  | [] -> max_int
  | p :: rest ->
      let rec next = function
        | c :: (s :: _) when c == n -> Some s
        | _ :: cs -> next cs
        | [] -> None
      in
      (match next (Dom.children p) with Some s -> s.Dom.order | None -> upper rest p)

(* Number a fresh subtree consecutively from [lo], below [hi]. *)
let place fresh ~lo ~hi =
  let k = Dom.index ~first:lo fresh in
  if k > hi - lo then err "no document-order gap left at this position"

(* A new version of [p] with [children].  [fresh] lists the children
   this update built; shared children keep their parent pointers.  A
   parent pointer only names an order, which the epoch's version map
   resolves to the current version, so a fresh child points where its
   shared siblings already do.  Pointing it at [p'] would keep [p']'s
   whole child list alive for as long as the child lives: one copy of
   the section per commit.  Only a version with no shared child hands
   out itself. *)
let version ?(fresh = []) p children =
  let subtree_end =
    List.fold_left (fun e c -> max e (Dom.subtree_end c)) (Dom.subtree_end p) fresh
  in
  let p' = Dom.version p ~children ~subtree_end in
  let anchor =
    match List.find_opt (fun c -> not (List.memq c fresh)) children with
    | Some c -> c.Dom.parent
    | None -> Some p'
  in
  List.iter (fun c -> c.Dom.parent <- anchor) fresh;
  p'

(* [l] with [x] replaced by [y]: the cells before [x] are copied, the
   ones after it shared. *)
let replace x y l =
  let rec go acc = function
    | c :: rest when c == x -> List.rev_append acc (y :: rest)
    | c :: rest -> go (c :: acc) rest
    | [] -> l
  in
  go [] l

(* New versions of [n]'s ancestors, given [n]'s new version [n'].
   Returns the new root and every [(old, new)] pair, [(n, n')]
   included. *)
let rebuild ancs n n' =
  List.fold_left
    (fun (n, n', pairs) p ->
      let p' = version ~fresh:[ n' ] p (replace n n' (Dom.children p)) in
      (p, p', (p, p') :: pairs))
    (n, n', [ (n, n') ])
    ancs
  |> fun (_, root', pairs) -> (root', pairs)

let advance t ~root ~replaced ~added ~removed =
  if Xmark_stats.enabled () then
    Xmark_stats.incr
      ~by:(List.length replaced + List.fold_left (fun a n -> a + Dom.size n) 0 added)
      "nodes_built";
  t.store <- MM.derive t.store { MM.new_root = root; replaced; added; removed }

(* --- the three updates ------------------------------------------------------ *)

let register_person t ~name ~email =
  let site = root t in
  let people = require_section site "people" in
  let id = Printf.sprintf "person%d" (t.persons + 1) in
  let person =
    Dom.element ~attrs:[ ("id", id) ]
      ~children:[ Dom.element ~children:[ Dom.text name ] "name";
                  Dom.element ~children:[ Dom.text email ] "emailaddress" ]
      "person"
  in
  place person ~lo:(Dom.subtree_end people) ~hi:(upper [ site ] people);
  let people' = version ~fresh:[ person ] people (Dom.children people @ [ person ]) in
  let root', replaced = rebuild [ site ] people people' in
  advance t ~root:root' ~replaced ~added:[ person ] ~removed:[];
  t.persons <- t.persons + 1;
  id

let leaf_value n tag =
  match child_el n tag with
  | Some c -> Dom.string_value c
  | None -> err "<%s> missing inside <%s>" tag (Dom.name n)

(* A version of leaf element [c] holding just the text [value]; the
   text's parent is the new version.  The text takes the first order
   inside [c], which [c]'s old children release or the gap after a
   childless [c] provides. *)
let set_leaf ancs c value =
  let text = Dom.text value in
  let o = c.Dom.order + 1 in
  if Dom.children c = [] && o >= upper ancs c then
    err "no document-order gap left at this position";
  text.Dom.order <- o;
  (version ~fresh:[ text ] c [ text ], text)

let money f = Printf.sprintf "%.2f" f

let find_open_auction t auction =
  if Hashtbl.mem t.closed_ids auction then fail (Auction_closed auction);
  match find_by_id t auction with
  | Some n when Dom.name n = "open_auction" -> n
  | Some _ | None -> fail (Unknown_auction auction)

let place_bid t ~auction ~person ~increase ~date ~time =
  if increase <= 0.0 then err "bid increase must be positive";
  let oa = find_open_auction t auction in
  (match find_by_id t person with
  | Some n when Dom.name n = "person" -> ()
  | Some _ | None -> fail (Unknown_person person));
  (* validate everything — including the current price — before the
     store changes, so a raised Update_error leaves the session as it was *)
  let cur =
    match child_el oa "current" with
    | Some c -> c
    | None -> err "<current> missing inside <open_auction>"
  in
  let current =
    match float_of_string_opt (Dom.string_value cur) with
    | Some v -> v
    | None -> err "auction %s has a non-numeric <current>" auction
  in
  let bidder =
    Dom.element
      ~children:
        [
          Dom.element ~children:[ Dom.text date ] "date";
          Dom.element ~children:[ Dom.text time ] "time";
          Dom.element ~attrs:[ ("person", person) ] "personref";
          Dom.element ~children:[ Dom.text (money increase) ] "increase";
        ]
      "bidder"
  in
  (* DTD order: bidders sit between initial/reserve and current *)
  let rec split before = function
    | c :: rest when List.mem (Dom.name c) [ "initial"; "reserve"; "bidder" ] ->
        split (c :: before) rest
    | after -> (before, after)
  in
  let rev_before, after = split [] (Dom.children oa) in
  let ancs = ancestors t oa in
  let lo = match rev_before with last :: _ -> Dom.subtree_end last | [] -> oa.Dom.order + 1 in
  let hi = match after with next :: _ -> next.Dom.order | [] -> upper ancs oa in
  place bidder ~lo ~hi;
  let cur', text = set_leaf (oa :: ancs) cur (money (current +. increase)) in
  let oa' =
    version ~fresh:[ bidder; cur' ] oa
      (List.rev_append rev_before (bidder :: replace cur cur' after))
  in
  let root', replaced = rebuild ancs oa oa' in
  advance t ~root:root' ~replaced:((cur, cur') :: replaced) ~added:[ bidder; text ]
    ~removed:(Dom.children cur)

let close_auction t ~auction ~date =
  let oa = find_open_auction t auction in
  let bidders = List.filter (fun c -> Dom.name c = "bidder") (Dom.children oa) in
  let last_bidder =
    match List.rev bidders with b :: _ -> b | [] -> fail (No_bids auction)
  in
  let buyer =
    match child_el last_bidder "personref" with
    | Some p -> ( match Dom.attr p "person" with Some v -> v | None -> err "bidder without person")
    | None -> err "bidder without personref"
  in
  let price = leaf_value oa "current" in
  let site = root t in
  let closeds = require_section site "closed_auctions" in
  let opens = require_section site "open_auctions" in
  (match MM.parent t.store oa with
  | Some p when p == opens -> ()
  | Some _ | None -> err "auction %s is not a child of <open_auctions>" auction);
  let ref_attr tag =
    match child_el oa tag with
    | Some n -> Dom.attr n (match tag with "itemref" -> "item" | _ -> "person")
    | None -> None
  in
  let get_opt tag = Option.map Dom.string_value (child_el oa tag) in
  let closed =
    Dom.element
      ~children:
        ([
           Dom.element ~attrs:[ ("person", Option.value ~default:"" (ref_attr "seller")) ] "seller";
           Dom.element ~attrs:[ ("person", buyer) ] "buyer";
           Dom.element ~attrs:[ ("item", Option.value ~default:"" (ref_attr "itemref")) ] "itemref";
           Dom.element ~children:[ Dom.text price ] "price";
           Dom.element ~children:[ Dom.text date ] "date";
           Dom.element
             ~children:[ Dom.text (Option.value ~default:"1" (get_opt "quantity")) ]
             "quantity";
           Dom.element
             ~children:[ Dom.text (Option.value ~default:"Regular" (get_opt "type")) ]
             "type";
         ]
        @ (match child_el oa "annotation" with Some a -> [ Dom.deep_copy a ] | None -> []))
      "closed_auction"
  in
  place closed ~lo:(Dom.subtree_end closeds) ~hi:(upper [ site ] closeds);
  (* unlink from open_auctions, append to closed_auctions *)
  let opens' = version opens (List.filter (fun c -> c != oa) (Dom.children opens)) in
  let closeds' = version ~fresh:[ closed ] closeds (Dom.children closeds @ [ closed ]) in
  let site' =
    version ~fresh:[ opens'; closeds' ] site
      (replace opens opens' (replace closeds closeds' (Dom.children site)))
  in
  advance t ~root:site'
    ~replaced:[ (site, site'); (opens, opens'); (closeds, closeds') ]
    ~added:[ closed ] ~removed:[ oa ];
  Hashtbl.replace t.closed_ids auction ()
