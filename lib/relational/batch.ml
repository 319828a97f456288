let block_size = 1024

type t = { mutable data : int array; mutable len : int }

let create ?(capacity = block_size) () =
  { data = Array.make (max 1 capacity) 0; len = 0 }

let length t = t.len

let push t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let to_array t = Array.sub t.data 0 t.len

let sorted_unique t =
  if t.len = 0 then [||]
  else begin
    let a = to_array t in
    Array.sort compare a;
    let n = Array.length a in
    let w = ref 1 in
    for r = 1 to n - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    if !w = n then a else Array.sub a 0 !w
  end

let iter_blocks ~poll f ids =
  let n = Array.length ids in
  let off = ref 0 in
  while !off < n do
    poll ();
    let len = min block_size (n - !off) in
    Xmark_stats.incr "batches_produced";
    Xmark_stats.incr ~by:len "batch_tuples";
    f ids !off len;
    off := !off + len
  done
