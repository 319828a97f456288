(** Reconstruction: base snapshot + log = the committed store.

    Replay is deterministic because every operation's effect — including
    the identifier [register_person] assigns — derives from the tree
    state alone, so re-applying the committed prefix in LSN order
    rebuilds the exact store the writer had published. *)

val of_snapshot :
  ?level:Xmark_store.Backend_mainmem.level ->
  string ->
  Record.t list ->
  Xmark_store.Updates.session
(** Restore a DOM base snapshot from a file and replay the records onto
    it.
    @raise Xmark_persist.Page_io.Corrupt if the snapshot is damaged or
    does not hold a DOM payload. *)
