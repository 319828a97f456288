type t = { doc : string }

let load doc = { doc }

let document t = t.doc

let bytes t = String.length t.doc

let session t =
  (* every execution pays a full re-parse: the constant overhead of the
     paper's Figure 4, visible as per-run [sax_events] *)
  Xmark_stats.incr "reparse_sessions";
  Backend_mainmem.of_string ~level:`Plain t.doc
