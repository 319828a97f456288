(* The relational path compiler must return exactly the nodes the
   navigational evaluator returns — a differential check between each
   relational store's two execution strategies (algebraic plan vs
   navigation), run over both mappings. *)

module HA = Xmark_store.Backend_heap
module SB = Xmark_store.Backend_shredded
module PC = Xmark_store.Path_compiler
module EvA = Xmark_xquery.Eval.Make (HA)
module EvB = Xmark_xquery.Eval.Make (SB)
module Parser = Xmark_xquery.Parser
module Ast = Xmark_xquery.Ast

let doc = lazy (Xmark_xmlgen.Generator.to_string ~factor:0.003 ())

let heap = lazy (HA.load_string (Lazy.force doc))

let shredded = lazy (SB.load_string (Lazy.force doc))

let store_a () = PC.Heap (Lazy.force heap)

let store_b () = PC.Shredded (Lazy.force shredded)

let steps_of src =
  match Parser.parse_expr src with
  | Ast.Path (Ast.Root, steps) -> steps
  | _ -> Alcotest.failf "%s is not an absolute path" src

let navigational store src =
  match store with
  | PC.Heap s -> EvA.eval_string s src |> List.filter_map (function EvA.N id -> Some id | _ -> None)
  | PC.Shredded s ->
      EvB.eval_string s src |> List.filter_map (function EvB.N id -> Some id | _ -> None)

let compiled store src = PC.execute (PC.compile store (steps_of src))

let paths_under_test =
  [
    "/site";
    "/site/people/person";
    "/site/regions/europe/item";
    "/site//item";
    "/site//keyword";
    "//person";
    "/site/open_auctions/open_auction/bidder/increase";
    {|/site/people/person[@id = "person0"]|};
    {|/site//item[@featured = "yes"]|};
    "/site/*";
    "/site/regions/*/item";
    "/nothing/here";
  ]

(* --- both stores: same contract over each mapping ------------------------------ *)

let test_matches_navigation store () =
  let store = store () in
  List.iter
    (fun src -> Alcotest.(check (list int)) src (navigational store src) (compiled store src))
    paths_under_test

(* the scalar per-level joins behind [--no-vec] must agree too *)
let test_scalar_matches_navigation store () =
  let module V = Xmark_relational.Vec_ops in
  let was = V.is_enabled () in
  V.set_enabled false;
  Fun.protect ~finally:(fun () -> V.set_enabled was) (test_matches_navigation store)

let test_document_order store () =
  let store = store () in
  List.iter
    (fun src ->
      let ids = compiled store src in
      Alcotest.(check bool) (src ^ " sorted") true (List.sort compare ids = ids))
    paths_under_test

(* --- System A: the edge model ---------------------------------------------------- *)

let test_join_count () =
  let s = store_a () in
  let plan = PC.compile s (steps_of "/site/people/person") in
  (* one join per step: the paper's point about path expressions on
     relational back-ends *)
  Alcotest.(check int) "three joins for three steps" 3 (PC.join_count plan);
  let plan2 = PC.compile s (steps_of {|/site/people/person[@id = "person0"]|}) in
  Alcotest.(check int) "predicate adds a join" 4 (PC.join_count plan2)

let test_explain () =
  let s = store_a () in
  let text = PC.explain (PC.compile s (steps_of {|/site/people/person[@id = "person0"]|})) in
  List.iter
    (fun needle ->
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) ("explain mentions " ^ needle) true (contains text needle))
    [ "DOC"; "tag='site'"; "tag='people'"; "tag='person'"; "attributes"; "value='person0'" ]

let test_unsupported () =
  let s = store_a () in
  let expect_unsupported src =
    match PC.compile s (steps_of src) with
    | exception PC.Unsupported _ -> ()
    | _ -> Alcotest.failf "%s should be unsupported" src
  in
  expect_unsupported "/site/people/person/name/text()";
  expect_unsupported "/site/people/person[1]";
  expect_unsupported "/site/people/person[homepage]";
  Alcotest.(check bool) "compile_expr returns None for FLWOR" true
    (PC.compile_expr s (Parser.parse_expr "for $x in /site return $x") = None);
  Alcotest.(check bool) "compile_expr handles supported path" true
    (PC.compile_expr s (Parser.parse_expr "/site//item") <> None)

(* --- System B: the fragmenting mapping ------------------------------------------- *)

let test_b_relations_touched () =
  let s = store_b () in
  (* a fully specified path touches one relation per step... *)
  let precise = PC.compile s (steps_of "/site/people/person") in
  Alcotest.(check int) "one relation per named step" 3 (PC.relations_touched precise);
  (* ...while a descendant step pays for the whole catalog *)
  let fuzzy = PC.compile s (steps_of "/site//item") in
  Alcotest.(check bool) "descendant step touches many relations" true
    (PC.relations_touched fuzzy > 20)

let test_b_same_ids_as_a () =
  (* both relational mappings number nodes in document pre-order, so the
     two stores' plans must return identical id lists *)
  let a = store_a () and b = store_b () in
  List.iter
    (fun src -> Alcotest.(check (list int)) src (compiled a src) (compiled b src))
    paths_under_test

let () =
  let t = Alcotest.test_case in
  Alcotest.run "path-compiler"
    (List.map
       (fun (group, store, specific) ->
         ( group,
           t "matches navigation" `Quick (test_matches_navigation store)
           :: t "scalar matches navigation" `Quick (test_scalar_matches_navigation store)
           :: t "document order" `Quick (test_document_order store)
           :: specific ))
       [
         ( "compiler",
           store_a,
           [
             t "join count" `Quick test_join_count;
             t "explain" `Quick test_explain;
             t "unsupported fragments" `Quick test_unsupported;
           ] );
         ( "system-b",
           store_b,
           [
             t "relations touched" `Quick test_b_relations_touched;
             t "agrees with system A compiler" `Quick test_b_same_ids_as_a;
           ] );
       ])
