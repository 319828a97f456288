(* What does a path expression cost on a relational XML store?

     dune exec examples/explain_plans.exe

   The paper's Section 2: on relational back-ends, path expressions "tend
   to require expensive join and aggregation operations".  This example
   compiles benchmark-style paths for the two relational mappings and
   prints the resulting algebra: on the edge model (System A) every step
   is a self-join of the one node relation; on the fragmenting mapping
   (System B) precise steps touch one small relation each, but descendant
   steps must visit the whole catalog. *)

module HA = Xmark_store.Backend_heap
module SB = Xmark_store.Backend_shredded
module PC = Xmark_store.Path_compiler
module Ast = Xmark_xquery.Ast
module Parser = Xmark_xquery.Parser

let paths =
  [
    "/site/people/person";
    {|/site/people/person[@id = "person0"]|};
    "/site//keyword";
    "/site/open_auctions/open_auction/bidder/increase";
  ]

let steps_of src =
  match Parser.parse_expr src with
  | Ast.Path (Ast.Root, steps) -> steps
  | _ -> failwith "not an absolute path"

let () =
  let doc = Xmark_xmlgen.Generator.to_string ~factor:0.005 () in
  let heap = HA.load_string doc in
  let shredded = SB.load_string doc in
  List.iter
    (fun path ->
      Printf.printf "PATH %s\n" path;
      let pa = PC.compile (PC.Heap heap) (steps_of path) in
      let pb = PC.compile (PC.Shredded shredded) (steps_of path) in
      Printf.printf "  System A (edge model, %d joins):\n    %s\n" (PC.join_count pa)
        (PC.explain pa);
      Printf.printf "  System B (fragmented, %d relations touched):\n    %s\n"
        (PC.relations_touched pb) (PC.explain pb);
      let t0 = Unix.gettimeofday () in
      let ra = PC.execute pa in
      let t1 = Unix.gettimeofday () in
      let rb = PC.execute pb in
      let t2 = Unix.gettimeofday () in
      Printf.printf "  results: %d nodes (A %.2f ms, B %.2f ms, identical: %b)\n\n"
        (List.length ra)
        ((t1 -. t0) *. 1000.)
        ((t2 -. t1) *. 1000.)
        (ra = rb))
    paths
