(* The benchmark's own statistics: geometric means, nearest-rank
   percentiles and the tail rule.  A reported tail percentile must have
   at least [min_beyond] samples above its rank, so a p99 needs 1000
   samples and a p95 200; below that the highest percentile the sample
   supports is reported instead, with the sample count beside it. *)

let min_beyond = 10

let geomean = function
  | [] -> invalid_arg "Bench_stats.geomean: empty list"
  | xs ->
      List.iter
        (fun x -> if not (x > 0.0) then invalid_arg "Bench_stats.geomean: non-positive value")
        xs;
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let percentile = Xmark_core.Timing.percentile
let median = Xmark_core.Timing.median

(* Samples strictly above the nearest-rank [p]-th percentile of [n]. *)
let beyond ~n p = n - max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let tail_supported ~n p = n > 0 && beyond ~n p >= min_beyond

(* The highest of [candidates] (descending) the sample supports. *)
let highest_supported ~n candidates = List.find_opt (tail_supported ~n) candidates

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* --- self-tests ------------------------------------------------------------ *)

let self_test () =
  let failures = ref [] in
  let check name ok = if not ok then failures := name :: !failures in
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
  check "geomean of a constant" (close (geomean [ 3.0; 3.0; 3.0 ]) 3.0);
  check "geomean 1,4,16 = 4" (close (geomean [ 1.0; 4.0; 16.0 ]) 4.0);
  check "geomean 2,8 = 4" (close (geomean [ 2.0; 8.0 ]) 4.0);
  check "geomean refuses zero"
    (match geomean [ 1.0; 0.0 ] with _ -> false | exception Invalid_argument _ -> true);
  check "geomean refuses empty"
    (match geomean [] with _ -> false | exception Invalid_argument _ -> true);
  let hundred = List.init 100 (fun i -> float_of_int (100 - i)) in
  check "p50 of 1..100 is 50" (percentile 50.0 hundred = 50.0);
  check "p99 of 1..100 is 99" (percentile 99.0 hundred = 99.0);
  check "p100 is the max" (percentile 100.0 hundred = 100.0);
  check "p0 is the min" (percentile 0.0 hundred = 1.0);
  let twenty = List.init 20 (fun i -> float_of_int (i + 1)) in
  check "p95 of 1..20 is 19" (percentile 95.0 twenty = 19.0);
  check "median of 3 is the middle" (median [ 9.0; 1.0; 5.0 ] = 5.0);
  check "median of 2 is the lower" (median [ 2.0; 1.0 ] = 1.0);
  check "nearest rank is a sample" (percentile 90.0 [ 1.0; 10.0 ] = 10.0);
  check "p99 needs 1000 samples" (tail_supported ~n:1000 99.0 && not (tail_supported ~n:999 99.0));
  check "p95 needs 200 samples" (tail_supported ~n:200 95.0 && not (tail_supported ~n:199 95.0));
  check "p50 needs 20 samples" (tail_supported ~n:20 50.0 && not (tail_supported ~n:19 50.0));
  check "beyond p99 of 1000 is 10" (beyond ~n:1000 99.0 = 10);
  check "no tail on an empty sample" (not (tail_supported ~n:0 50.0));
  check "highest supported falls back"
    (highest_supported ~n:500 [ 99.0; 95.0; 90.0 ] = Some 95.0
    && highest_supported ~n:5 [ 99.0; 95.0; 50.0 ] = None);
  List.rev !failures
