type entry = { bytes : bytes; mutable last_used : int }

type t = {
  ic : in_channel;
  npages : int;
  cap : int;
  cache : (int, entry) Hashtbl.t;
  lock : Mutex.t;
      (* one lock covers lookup, disk read and eviction, so several
         domains can read the same snapshot concurrently; page bytes are
         immutable once published, so callers may keep using a returned
         page after it has been evicted *)
  mutable tick : int;  (* strictly increasing, so LRU order has no ties *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let default_capacity = 256

let open_file ?(capacity = default_capacity) path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  if len = 0 then begin
    close_in_noerr ic;
    Page_io.corrupt "%s: empty snapshot file" path
  end;
  if len mod Page_io.page_size <> 0 then begin
    close_in_noerr ic;
    Page_io.corrupt "%s: truncated snapshot (%d bytes is not a whole number of %d-byte pages)"
      path len Page_io.page_size
  end;
  {
    ic;
    npages = len / Page_io.page_size;
    cap = max 1 capacity;
    cache = Hashtbl.create 64;
    lock = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let close t = close_in_noerr t.ic

let page_count t = t.npages

let touch t e =
  t.tick <- t.tick + 1;
  e.last_used <- t.tick

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun p e acc ->
        match acc with
        | Some (_, best) when best.last_used <= e.last_used -> acc
        | _ -> Some (p, e))
      t.cache None
  in
  match victim with
  | None -> ()
  | Some (p, _) ->
      Hashtbl.remove t.cache p;
      t.evictions <- t.evictions + 1;
      Xmark_stats.incr "pager_evictions"

let page t n =
  if n < 0 || n >= t.npages then
    Page_io.corrupt "page %d out of range (snapshot has %d pages — truncated?)" n t.npages;
  Mutex.protect t.lock (fun () ->
  match Hashtbl.find_opt t.cache n with
  | Some e ->
      t.hits <- t.hits + 1;
      Xmark_stats.incr "pager_hits";
      touch t e;
      e.bytes
  | None ->
      t.misses <- t.misses + 1;
      Xmark_stats.incr "pager_misses";
      let b = Bytes.create Page_io.page_size in
      (try
         seek_in t.ic (n * Page_io.page_size);
         really_input t.ic b 0 Page_io.page_size
       with End_of_file -> Page_io.corrupt "page %d: short read (truncated snapshot)" n);
      Page_io.verify b ~off:0 ~page:n;
      if Hashtbl.length t.cache >= t.cap then evict_lru t;
      let e = { bytes = b; last_used = 0 } in
      touch t e;
      Hashtbl.replace t.cache n e;
      b)

let read_blob t ~first_page ~byte_len =
  let buf = Buffer.create byte_len in
  let remaining = ref byte_len and pageno = ref first_page in
  while !remaining > 0 do
    let b = page t !pageno in
    let take = min !remaining Page_io.payload_size in
    Buffer.add_subbytes buf b 0 take;
    remaining := !remaining - take;
    incr pageno
  done;
  Buffer.contents buf

let stats t = Mutex.protect t.lock (fun () -> (t.hits, t.misses, t.evictions))

let cached t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun p e acc -> (p, e.last_used) :: acc) t.cache [])
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.map fst
