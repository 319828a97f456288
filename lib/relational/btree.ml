(* In-memory B+-tree.  Nodes hold keys in sorted arrays; leaves carry the
   row-id lists (reversed during building, normalized on read) and a next
   pointer for range walks. *)

type leaf = {
  mutable keys : Value.t array;
  mutable vals : int list array;  (* reversed insertion order *)
  mutable next : leaf option;
}

type node =
  | Leaf of leaf
  | Internal of internal

and internal = {
  mutable seps : Value.t array;  (* n separators *)
  mutable children : node array;  (* n+1 children *)
}

type t = { mutable root : node; branching : int; mutable count : int }

let create ?(branching = 32) () =
  let branching = max 4 branching in
  { root = Leaf { keys = [||]; vals = [||]; next = None }; branching; count = 0 }

(* index of the child to follow for [key]: first separator > key *)
let child_slot seps key =
  let n = Array.length seps in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Value.compare key seps.(mid) < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 n

(* position of [key] in a leaf (first index with keys.(i) >= key) *)
let leaf_slot keys key =
  let n = Array.length keys in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Value.compare keys.(mid) key < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 n

let array_insert a i x =
  let n = Array.length a in
  Array.init (n + 1) (fun j -> if j < i then a.(j) else if j = i then x else a.(j - 1))

type split = No_split | Split of Value.t * node  (* separator, new right sibling *)

let rec insert_node t node key row =
  match node with
  | Leaf l ->
      let i = leaf_slot l.keys key in
      if i < Array.length l.keys && Value.compare l.keys.(i) key = 0 then begin
        l.vals.(i) <- row :: l.vals.(i);
        No_split
      end
      else begin
        l.keys <- array_insert l.keys i key;
        l.vals <- array_insert l.vals i [ row ];
        if Array.length l.keys < t.branching then No_split
        else begin
          (* split the leaf in half *)
          let n = Array.length l.keys in
          let mid = n / 2 in
          let right =
            {
              keys = Array.sub l.keys mid (n - mid);
              vals = Array.sub l.vals mid (n - mid);
              next = l.next;
            }
          in
          l.keys <- Array.sub l.keys 0 mid;
          l.vals <- Array.sub l.vals 0 mid;
          l.next <- Some right;
          Split (right.keys.(0), Leaf right)
        end
      end
  | Internal inner -> (
      let slot = child_slot inner.seps key in
      match insert_node t inner.children.(slot) key row with
      | No_split -> No_split
      | Split (sep, right) ->
          inner.seps <- array_insert inner.seps slot sep;
          inner.children <- array_insert inner.children (slot + 1) right;
          if Array.length inner.children <= t.branching then No_split
          else begin
            let n = Array.length inner.seps in
            let mid = n / 2 in
            let sep_up = inner.seps.(mid) in
            let right_node =
              {
                seps = Array.sub inner.seps (mid + 1) (n - mid - 1);
                children = Array.sub inner.children (mid + 1) (Array.length inner.children - mid - 1);
              }
            in
            inner.seps <- Array.sub inner.seps 0 mid;
            inner.children <- Array.sub inner.children 0 (mid + 1);
            Split (sep_up, Internal right_node)
          end)

let insert t key row =
  t.count <- t.count + 1;
  match insert_node t t.root key row with
  | No_split -> ()
  | Split (sep, right) ->
      t.root <- Internal { seps = [| sep |]; children = [| t.root; right |] }

let build ?branching table column =
  let t = create ?branching () in
  let ci = Table.col_index table column in
  Table.iter (fun row_id row -> insert t row.(ci) row_id) table;
  t

let rec find_leaf node key =
  match node with
  | Leaf l -> l
  | Internal inner -> find_leaf inner.children.(child_slot inner.seps key) key

let lookup t key =
  Xmark_stats.incr "index_lookups";
  let l = find_leaf t.root key in
  let i = leaf_slot l.keys key in
  if i < Array.length l.keys && Value.compare l.keys.(i) key = 0 then List.rev l.vals.(i) else []

let rec leftmost = function
  | Leaf l -> l
  | Internal inner -> leftmost inner.children.(0)

let range ?lower ?upper t =
  Xmark_stats.incr "index_lookups";
  let start =
    match lower with
    | None -> leftmost t.root
    | Some (key, _) -> find_leaf t.root key
  in
  let keep_lower key =
    match lower with
    | None -> true
    | Some (bound, inclusive) ->
        let c = Value.compare key bound in
        if inclusive then c >= 0 else c > 0
  in
  let below_upper key =
    match upper with
    | None -> true
    | Some (bound, inclusive) ->
        let c = Value.compare key bound in
        if inclusive then c <= 0 else c < 0
  in
  let chunks = ref [] in
  let rec walk leaf =
    let stop = ref false in
    Array.iteri
      (fun i key ->
        if not !stop then
          if not (below_upper key) then stop := true
          else if keep_lower key then
            (* stored lists are reversed insertion order *)
            chunks := List.rev leaf.vals.(i) :: !chunks)
      leaf.keys;
    if not !stop then match leaf.next with Some next -> walk next | None -> ()
  in
  walk start;
  List.concat (List.rev !chunks)

let iter f t =
  let rec walk leaf =
    Array.iteri (fun i key -> List.iter (fun v -> f key v) (List.rev leaf.vals.(i))) leaf.keys;
    match leaf.next with Some next -> walk next | None -> ()
  in
  walk (leftmost t.root)

let cardinality t = t.count

let rec node_depth = function
  | Leaf _ -> 1
  | Internal inner -> 1 + node_depth inner.children.(0)

let depth t = node_depth t.root

let min_key t =
  let l = leftmost t.root in
  if Array.length l.keys > 0 then Some l.keys.(0) else None

let max_key t =
  let rec rightmost = function
    | Leaf l -> l
    | Internal inner -> rightmost inner.children.(Array.length inner.children - 1)
  in
  let l = rightmost t.root in
  let n = Array.length l.keys in
  if n > 0 then Some l.keys.(n - 1) else None
