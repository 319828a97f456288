module R = Xmark_relational
module Symbol = Xmark_xml.Symbol
module Ast = Xmark_xquery.Ast

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

type store = Heap of Backend_heap.t | Shredded of Backend_shredded.t

type test = Tag of Symbol.t | Any_element

type op =
  | Document  (* the virtual node above the root *)
  | Child_join of op * test
  | Descendant_closure of op * test
  | Attr_join of op * string * string  (* [@name = "value"] *)

type plan = { store : store; op : op }

(* --- compilation ------------------------------------------------------------ *)

let compile_test = function
  | Ast.Name tag -> Tag tag
  | Ast.Star -> Any_element
  | Ast.Text_test -> unsupported "text() steps"
  | Ast.Any_kind -> unsupported "node() steps"

let compile_pred op = function
  | Ast.Compare
      ( Ast.Eq,
        Ast.Path (Ast.Context, [ { Ast.axis = Ast.Attribute; test = Ast.Name a; preds = [] } ]),
        Ast.Literal v ) ->
      Attr_join (op, Symbol.to_string a, v)
  | Ast.Compare
      ( Ast.Eq,
        Ast.Literal v,
        Ast.Path (Ast.Context, [ { Ast.axis = Ast.Attribute; test = Ast.Name a; preds = [] } ]) )
      ->
      Attr_join (op, Symbol.to_string a, v)
  | p -> unsupported "predicate %s" (Ast.expr_to_string p)

let compile_step op { Ast.axis; test; preds } =
  let base =
    match axis with
    | Ast.Child -> Child_join (op, compile_test test)
    | Ast.Descendant -> Descendant_closure (op, compile_test test)
    | Ast.Attribute -> unsupported "attribute axis as a step"
    | Ast.Parent -> unsupported "parent axis"
    | Ast.Self -> unsupported "self axis"
  in
  List.fold_left compile_pred base preds

let compile store steps = { store; op = List.fold_left compile_step Document steps }

let compile_expr store = function
  | Ast.Path (Ast.Root, steps) -> ( try Some (compile store steps) with Unsupported _ -> None)
  | _ -> None

(* --- scalar execution ---------------------------------------------------------- *)

(* System A's physical access paths, straight from its catalog. *)
type heap_access = {
  nodes : R.Table.t;
  attrs : R.Table.t;
  children_idx : R.Index.t;
  attr_owner_idx : R.Index.t;
  tag_col : int;
  kind_col : int;
  aname_col : int;
  avalue_col : int;
}

let heap_access store =
  let cat = Backend_heap.catalog store in
  let table name =
    match R.Catalog.lookup cat name with
    | Some t -> t
    | None -> unsupported "relation %s missing from catalog" name
  in
  let index table column =
    match R.Catalog.lookup_index cat ~table ~column with
    | Some i -> i
    | None -> unsupported "index %s(%s) missing from catalog" table column
  in
  let nodes = table "nodes" and attrs = table "attributes" in
  {
    nodes;
    attrs;
    children_idx = index "nodes" "parent";
    attr_owner_idx = index "attributes" "owner";
    tag_col = R.Table.col_index nodes "tag";
    kind_col = R.Table.col_index nodes "kind";
    aname_col = R.Table.col_index attrs "name";
    avalue_col = R.Table.col_index attrs "value";
  }

(* The scalar operators reach each mapping's relations differently: System A
   resolves its two relations once per execution, while on System B every
   relation and index lookup goes through the catalog, as in a real
   system, so each probe is a metadata access. *)
type access = Heap_rel of heap_access | Shredded_rel of Backend_shredded.t

let access = function
  | Heap s -> Heap_rel (heap_access s)
  | Shredded s -> Shredded_rel s

let root = function Heap_rel _ -> 0 | Shredded_rel s -> Backend_shredded.root s

let matches access test id =
  match access with
  | Heap_rel a -> (
      let row = R.Table.get a.nodes id in
      row.(a.kind_col) = R.Value.Int 0
      &&
      match test with
      | Any_element -> true
      | Tag tag -> (
          (* dictionary-encoded tag column: an int compare, no hashing *)
          match row.(a.tag_col) with R.Value.Int t -> t = (tag :> int) | _ -> false))
  | Shredded_rel s -> (
      match test with
      | Any_element -> true
      | Tag tag -> Symbol.equal (Backend_shredded.name s id) tag)

(* ids of rows of one System B tag relation whose parent is in [ids] *)
let probe_relation store tag ids =
  let cat = Backend_shredded.catalog store in
  match (R.Catalog.lookup cat tag, R.Catalog.lookup_index cat ~table:tag ~column:"parent") with
  | Some table, Some idx ->
      List.concat_map
        (fun parent ->
          List.filter_map
            (fun row_id ->
              match (R.Table.get table row_id).(0) with
              | R.Value.Int id -> Some id
              | _ -> None)
            (R.Index.lookup idx (R.Value.Int parent)))
        ids
  | _ -> []

(* index-nested-loop join on the parent column; sorted, deduplicated *)
let children_of access test ids =
  (match access with
  | Heap_rel a ->
      List.concat_map
        (fun id ->
          List.filter (matches access test) (R.Index.lookup a.children_idx (R.Value.Int id)))
        ids
  | Shredded_rel s ->
      let tags =
        match test with
        | Tag tag -> [ Symbol.to_string tag ]
        | Any_element -> Backend_shredded.element_tags s
      in
      List.concat_map (fun tag -> probe_relation s tag ids) tags)
  |> List.sort_uniq compare

let attr_matches access name value id =
  match access with
  | Heap_rel a ->
      List.exists
        (fun row_id ->
          let row = R.Table.get a.attrs row_id in
          row.(a.aname_col) = R.Value.Str name && row.(a.avalue_col) = R.Value.Str value)
        (R.Index.lookup a.attr_owner_idx (R.Value.Int id))
  | Shredded_rel s -> Backend_shredded.attribute s id name = Some value

let rec closure access test frontier acc =
  match frontier with
  | [] -> List.sort_uniq compare acc
  | _ ->
      let kids = children_of access Any_element frontier in
      let matching = List.filter (matches access test) kids in
      closure access test kids (List.rev_append matching acc)

let rec run access = function
  | Document -> [ -1 ]  (* sentinel: the document node's only child is the root *)
  | Child_join (op, test) -> (
      match run access op with
      | [ -1 ] ->
          let r = root access in
          if matches access test r then [ r ] else []
      | ids -> children_of access test ids)
  | Descendant_closure (op, test) -> (
      match run access op with
      | [ -1 ] ->
          let r = root access in
          closure access test [ r ] (if matches access test r then [ r ] else [])
      | ids -> closure access test ids [])
  | Attr_join (op, name, value) -> List.filter (attr_matches access name value) (run access op)

(* --- vectorized execution ------------------------------------------------- *)

let vtest = function
  | Tag t -> R.Vec_ops.Tag (t : Symbol.t :> int)
  | Any_element -> R.Vec_ops.Star

let attribute store id name =
  match store with
  | Heap s -> Backend_heap.attribute s id name
  | Shredded s -> Backend_shredded.attribute s id name

(* The op tree is a linear chain, so it flattens into the id-algebra
   step list of {!Xmark_relational.Vec_ops}. *)
let rec to_lsteps store = function
  | Document -> []
  | Child_join (op, test) -> to_lsteps store op @ [ R.Vec_ops.Child (vtest test) ]
  | Descendant_closure (op, test) -> to_lsteps store op @ [ R.Vec_ops.Descendant (vtest test) ]
  | Attr_join (op, name, value) ->
      to_lsteps store op
      @ [
          R.Vec_ops.Select
            {
              R.Vec_ops.sel_label = Printf.sprintf "@%s = %S" name value;
              sel_est = 0.1;
              sel_fn = (fun id -> attribute store id name = Some value);
            };
        ]

let vec_plan plan =
  let vec = match plan.store with Heap s -> Backend_heap.vec s | Shredded s -> Backend_shredded.vec s in
  match vec with
  | None -> None
  | Some (adapter, _) -> (
      match to_lsteps plan.store plan.op with
      | [] -> None
      | lsteps -> Some (adapter, R.Vec_ops.compile adapter lsteps))

let execute plan =
  match (if R.Vec_ops.is_enabled () then vec_plan plan else None) with
  | Some (adapter, vp) ->
      Array.to_list (R.Vec_ops.execute adapter ~poll:Xmark_xquery.Cancel.poll vp)
  | None -> run (access plan.store) plan.op

(* --- plan measures and rendering -------------------------------------------- *)

let rec join_count = function
  | Document -> 0
  | Child_join (op, _) | Descendant_closure (op, _) | Attr_join (op, _, _) -> 1 + join_count op

let join_count plan = join_count plan.op

let relations_touched plan =
  match plan.store with
  | Heap _ -> join_count plan
  | Shredded s ->
      let catalog = List.length (Backend_shredded.element_tags s) in
      let rec touched = function
        | Document -> 0
        | Child_join (op, Tag _) | Attr_join (op, _, _) -> 1 + touched op
        | Child_join (op, Any_element) | Descendant_closure (op, _) -> catalog + touched op
      in
      touched plan.op

(* System A: every step is a self-join of the one node relation. *)
let rec render_heap = function
  | Document -> "DOC"
  | Child_join (op, test) ->
      Printf.sprintf "(%s ⨝[parent=id] σ[%s] nodes)" (render_heap op) (heap_test test)
  | Descendant_closure (op, test) ->
      Printf.sprintf "(%s ⨝*[parent=id closure] σ[%s] nodes)" (render_heap op) (heap_test test)
  | Attr_join (op, name, value) ->
      Printf.sprintf "(%s ⨝[id=owner] σ[name='%s' ∧ value='%s'] attributes)" (render_heap op)
        name value

and heap_test = function
  | Tag t -> Printf.sprintf "tag='%s'" (Symbol.to_string t)
  | Any_element -> "kind=elem"

(* System B: a named step joins its tag's own relation. *)
let rec render_shredded = function
  | Document -> "DOC"
  | Child_join (op, test) ->
      Printf.sprintf "(%s ⨝[parent=id] %s)" (render_shredded op) (shredded_test test)
  | Descendant_closure (op, test) ->
      Printf.sprintf "(%s ⨝*[closure over every relation] filter %s)" (render_shredded op)
        (shredded_test test)
  | Attr_join (op, name, value) ->
      Printf.sprintf "(%s ⨝[id=owner] σ[value='%s'] @%s)" (render_shredded op) value name

and shredded_test = function
  | Tag t -> Symbol.to_string t
  | Any_element -> "<every relation>"

let explain plan =
  match plan.store with Heap _ -> render_heap plan.op | Shredded _ -> render_shredded plan.op
