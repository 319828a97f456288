(* Cooperative cancellation for long-running evaluations.

   The evaluator has no natural yield points — a quadratic Q11 at factor
   0.1 runs for seconds inside pure OCaml loops — so a server cannot
   abort it from outside.  Instead the hot iteration sites in [Eval]
   call {!poll}, which consults a per-domain check installed by whoever
   started the evaluation (the query service arms it with a deadline).
   When no check is installed the poll is a domain-local read and a
   branch: benchmark numbers are unaffected.

   The check runs on the evaluating domain and signals by raising
   {!Cancelled}; the evaluator's own state is simply abandoned
   (compiled-plan caches tolerate this — see Plan_cache). *)

exception Cancelled of string

let key : (unit -> unit) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let poll () =
  match !(Domain.DLS.get key) with None -> () | Some check -> check ()

let with_check check f =
  let slot = Domain.DLS.get key in
  let saved = !slot in
  slot := Some check;
  Fun.protect ~finally:(fun () -> slot := saved) f
