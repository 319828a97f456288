(* QName interning with a deterministic pre-seeded fast path.

   The seeded vocabulary below must mirror Dtd.element_names /
   Dtd.attribute_names in lib/xmlgen — this library sits underneath the
   generator in the dependency order, so the list is spelled out here
   and test/test_xml.ml cross-checks the two.  Element names come first
   (declaration order), then the attribute names that are not already
   element names, in DTD attlist order. *)

type t = int

let empty = 0

let seed_vocabulary =
  [
    (* id 0: the empty string, the name of text nodes *)
    "";
    (* element names, DTD declaration order (ids 1..73) *)
    "site"; "categories"; "category"; "name"; "description"; "text"; "bold";
    "keyword"; "emph"; "parlist"; "listitem"; "catgraph"; "edge"; "regions";
    "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica"; "item";
    "location"; "quantity"; "payment"; "shipping"; "reserve"; "incategory";
    "mailbox"; "mail"; "from"; "to"; "date"; "itemref"; "personref";
    "people"; "person"; "emailaddress"; "phone"; "address"; "street";
    "city"; "province"; "zipcode"; "country"; "homepage"; "creditcard";
    "profile"; "interest"; "education"; "gender"; "business"; "age";
    "watches"; "watch"; "open_auctions"; "open_auction"; "initial";
    "bidder"; "time"; "increase"; "current"; "privacy"; "seller";
    "annotation"; "author"; "happiness"; "type"; "interval"; "start";
    "end"; "closed_auctions"; "closed_auction"; "buyer"; "price";
    (* attribute names not doubling as element names (ids 74..76) *)
    "id"; "featured"; "income";
  ]

let seeded = Array.of_list seed_vocabulary

let seeded_count = Array.length seeded

(* --- seeded fast path: an immutable open-addressing probe table ------- *)

(* Power of two, ~13% load at 77 seeded names: probes terminate fast. *)
let table_size = 1024

let table_mask = table_size - 1

(* FNV-1a, truncated to 30 bits so it stays a non-negative OCaml int
   on every platform. *)
let fnv_sub s pos len =
  let h = ref 0x811c9dc5 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193 land 0x3FFFFFFF
  done;
  !h

let fnv s = fnv_sub s 0 (String.length s)

(* slot -> seeded id, -1 for empty; never written after init *)
let slots =
  let t = Array.make table_size (-1) in
  Array.iteri
    (fun id name ->
      let j = ref (fnv name land table_mask) in
      while t.(!j) >= 0 do
        j := (!j + 1) land table_mask
      done;
      t.(!j) <- id)
    seeded;
  t

(* Compare seeded.(id) against s.[pos..pos+len-1] without allocating. *)
let eq_sub name s pos len =
  String.length name = len
  &&
  let i = ref 0 in
  while !i < len && String.unsafe_get name !i = String.unsafe_get s (pos + !i) do
    incr i
  done;
  !i = len

(* --- dynamic slow path ------------------------------------------------- *)

module Smap = Map.Make (String)

(* Readers take lock-free snapshots; the mutex serialises writers only. *)
let dyn : t Smap.t Atomic.t = Atomic.make Smap.empty

let names : string array Atomic.t = Atomic.make seeded

let mutex = Mutex.create ()

let intern_new s =
  (* raced: another domain may have interned [s] since the fast path
     missed, so re-check under the lock *)
  Mutex.protect mutex (fun () ->
      match Smap.find_opt s (Atomic.get dyn) with
      | Some id -> id
      | None ->
          let arr = Atomic.get names in
          let id = Array.length arr in
          let arr' = Array.make (id + 1) s in
          Array.blit arr 0 arr' 0 id;
          Atomic.set names arr';
          Atomic.set dyn (Smap.add s id (Atomic.get dyn));
          id)

let intern_dynamic s =
  match Smap.find_opt s (Atomic.get dyn) with
  | Some id -> id
  | None -> intern_new s

let intern s =
  let j = ref (fnv s land table_mask) in
  let id = ref (-2) in
  while !id = -2 do
    match slots.(!j) with
    | -1 -> id := -1
    | cand when String.equal (Array.unsafe_get seeded cand) s -> id := cand
    | _ -> j := (!j + 1) land table_mask
  done;
  if !id >= 0 then !id else intern_dynamic s

let intern_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Symbol.intern_sub";
  let j = ref (fnv_sub s pos len land table_mask) in
  let id = ref (-2) in
  while !id = -2 do
    match slots.(!j) with
    | -1 -> id := -1
    | cand when eq_sub (Array.unsafe_get seeded cand) s pos len -> id := cand
    | _ -> j := (!j + 1) land table_mask
  done;
  if !id >= 0 then !id else intern_dynamic (String.sub s pos len)

let to_string sym = (Atomic.get names).(sym)

let to_int sym = sym

let of_int i =
  if i < 0 || i >= Array.length (Atomic.get names) then
    invalid_arg (Printf.sprintf "Symbol.of_int: unknown symbol id %d" i);
  i

let equal (a : t) (b : t) = Int.equal a b

let count () = Array.length (Atomic.get names)

let seeded_names () = seed_vocabulary
