(* The host's speed, measured by a fixed kernel that shares no code or
   data with the program under test.

   The benchmark runs on a few cores of a shared host whose speed
   drifts as its neighbours come and go: on a 2-vCPU Xeon VM the same
   mainmem-scale pass took 0.67 s and, some minutes later, 1.15 s, and
   no median over one run removes a change that lasts longer than the
   run.  So every end-to-end time is reported at a reference host
   speed: the time as measured, times [reference_ms] over the median
   time of this probe, sampled all through the same part of the run
   (the same two states read 1.6 and 2.3 ms; the pass at the reference
   moved 15% where the clock moved 70%).  Both the values as measured
   and the probe are printed beside the result.

   The probe allocates nothing, so the program's heap and collector
   cannot change its time, and it walks a private 1 MiB cycle that it
   reads through just before each timed walk, so what the program did
   to the cache does not either.  What it does feel is what slows the
   program on a busy host: the core's clock, the load on its sibling
   thread, the shared cache.  A change to the program moves the probe
   not at all, and its own times in full. *)

let size = 1 lsl 17  (* ints: 1 MiB *)

(* One cycle through every slot (Sattolo's shuffle, fixed generator). *)
let next =
  let a = Array.init size Fun.id in
  let x = ref 0x2545F491 in
  for i = size - 1 downto 1 do
    x := (!x * 1103515245 + 12345) land 0x3fffffff;
    let j = !x mod i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let walk () =
  let j = ref 0 and h = ref 0 in
  for _ = 1 to size do
    j := Array.unsafe_get next !j;
    h := (!h * 31) + !j;
    if !h land 4 = 0 then h := !h lxor (!h lsr 7)
  done;
  !h

let warm () =
  let s = ref 0 in
  for i = 0 to size - 1 do
    s := !s + Array.unsafe_get next i
  done;
  !s

(* One probe sample, in ms. *)
let sample () =
  ignore (Sys.opaque_identity (warm ()));
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (walk ()));
  (Unix.gettimeofday () -. t0) *. 1000.0

(* About the probe's median on that VM (2.1 GHz Xeon), between its
   fast and slow states, so values at the reference stay near the
   clock's. *)
let reference_ms = 2.0

