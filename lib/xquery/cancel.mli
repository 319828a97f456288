(** Cooperative cancellation for long-running evaluations.

    [Eval]'s iteration loops call {!poll} at their hot sites; a caller
    that wants to bound an evaluation installs a per-domain check (for
    example "raise when the deadline has passed") around it.  With no
    check installed a poll costs a domain-local read and a branch, so
    plain benchmark runs are unaffected.

    The check is domain-local state: arm it on the domain that runs the
    evaluation, and always within [with_check] so it cannot leak into
    later requests served by the same domain. *)

exception Cancelled of string
(** Raised by a check to abort the evaluation in progress.  The payload
    says why ("deadline exceeded after 103.2 ms"). *)

val with_check : (unit -> unit) -> (unit -> 'a) -> 'a
(** [with_check check f] runs [f] with [check] armed on the current
    domain, restoring the previous check on exit (normal or raised).
    [check] is called from {!poll} sites inside the evaluation and
    should raise {!Cancelled} to abort. *)

val poll : unit -> unit
(** Called by the evaluator's iteration loops: runs the installed check
    if any.  No-op (one DLS read) when nothing is armed. *)
