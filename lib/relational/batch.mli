(** Growable vectors of node/symbol ids, consumed in fixed-size blocks.

    The vectorized execution layer ({!Vec_ops}) moves ids between
    operators as plain [int array] slices of at most {!block_size}
    elements: large enough to amortize per-tuple control flow and the
    cooperative-cancellation poll, small enough to stay in cache.  A
    [Batch.t] is the materialization buffer an operator fills before the
    next one drains it block by block.

    Observability: {!iter_blocks} records one [batches_produced] and
    [len] [batch_tuples] per block delivered, so the stats dump shows
    how much work flowed through the vectorized operators. *)

val block_size : int
(** Number of ids per block (1024). *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val push : t -> int -> unit

val to_array : t -> int array
(** Contents in push order (fresh array). *)

val sorted_unique : t -> int array
(** Contents sorted ascending with duplicates removed — the
    document-order set form every path operator hands downstream. *)

val iter_blocks : poll:(unit -> unit) -> (int array -> int -> int -> unit) -> int array -> unit
(** [iter_blocks ~poll f ids] calls [f ids off len] for consecutive
    blocks of at most {!block_size} ids, invoking [poll] before each
    block (the per-batch cancellation point) and recording the batch
    counters. *)
