(* Util substrate: heap, stats, binary search, RNG distribution sanity. *)

let test_heap_basic () =
  let h = Util.Heap.create Int.compare in
  Alcotest.(check bool) "empty" true (Util.Heap.is_empty h);
  List.iter (Util.Heap.push h) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "length" 5 (Util.Heap.length h);
  Alcotest.(check (option int)) "peek" (Some 1) (Util.Heap.peek h);
  Alcotest.(check (list int)) "drain sorted" [ 1; 1; 3; 4; 5 ] (Util.Heap.drain h);
  Alcotest.(check (option int)) "pop empty" None (Util.Heap.pop h)

let test_heap_of_list () =
  let h = Util.Heap.of_list Int.compare [ 9; 2; 7; 2; 0 ] in
  Alcotest.(check (list int)) "heapify + drain" [ 0; 2; 2; 7; 9 ] (Util.Heap.drain h)

let test_heap_max () =
  let h = Util.Heap.of_list (fun a b -> Int.compare b a) [ 1; 5; 3 ] in
  Alcotest.(check (option int)) "max-heap peek" (Some 5) (Util.Heap.peek h)

let heap_sort_is_sort =
  Helpers.qtest "heap drain = List.sort"
    QCheck.(list int)
    (fun xs ->
      Util.Heap.drain (Util.Heap.of_list Int.compare xs) = List.sort Int.compare xs)

let heap_push_pop =
  Helpers.qtest "pushes then drain = sort"
    QCheck.(list small_int)
    (fun xs ->
      let h = Util.Heap.create Int.compare in
      List.iter (Util.Heap.push h) xs;
      Util.Heap.drain h = List.sort Int.compare xs)

let test_running_stats () =
  let r = Util.Stats.Running.create () in
  List.iter (Util.Stats.Running.add r) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Util.Stats.Running.count r);
  Alcotest.(check (float 1e-9)) "mean" 5. (Util.Stats.Running.mean r);
  Alcotest.(check (float 1e-9)) "variance" (32. /. 7.) (Util.Stats.Running.variance r);
  Alcotest.(check (float 1e-9)) "min" 2. (Util.Stats.Running.min r);
  Alcotest.(check (float 1e-9)) "max" 9. (Util.Stats.Running.max r);
  Alcotest.(check (float 1e-9)) "total" 40. (Util.Stats.Running.total r)

let test_percentile () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (float 1e-9)) "median" 2.5 (Util.Stats.median xs);
  Alcotest.(check (float 1e-9)) "p0" 1. (Util.Stats.percentile 0. xs);
  Alcotest.(check (float 1e-9)) "p100" 4. (Util.Stats.percentile 100. xs);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array")
    (fun () -> ignore (Util.Stats.percentile 50. [||]))

let test_histogram () =
  let counts = Util.Stats.histogram ~buckets:4 ~lo:0. ~hi:4. [| 0.5; 1.5; 1.7; 3.9; -1.; 9. |] in
  Alcotest.(check (array int)) "bins" [| 2; 2; 0; 2 |] counts

let running_matches_batch =
  Helpers.qtest "running mean/stddev match batch"
    QCheck.(list_of_size Gen.(int_range 2 40) (float_range (-100.) 100.))
    (fun xs ->
      let arr = Array.of_list xs in
      let r = Util.Stats.Running.create () in
      Array.iter (Util.Stats.Running.add r) arr;
      Float.abs (Util.Stats.Running.mean r -. Util.Stats.mean arr) < 1e-6
      && Float.abs (Util.Stats.Running.stddev r -. Util.Stats.stddev arr) < 1e-6)

let test_bounds () =
  let xs = [| 1.; 2.; 2.; 5. |] in
  let key = Fun.id in
  Alcotest.(check int) "lower 2" 1 (Util.Array_util.lower_bound ~key xs 2.);
  Alcotest.(check int) "upper 2" 3 (Util.Array_util.upper_bound ~key xs 2.);
  Alcotest.(check int) "lower 0" 0 (Util.Array_util.lower_bound ~key xs 0.);
  Alcotest.(check int) "upper 9" 4 (Util.Array_util.upper_bound ~key xs 9.);
  Alcotest.(check int) "count [2,5]" 3
    (Util.Array_util.count_in_range ~key xs ~lo:2. ~hi:5.)

let bounds_property =
  Helpers.qtest "bounds bracket exactly the matching range"
    QCheck.(pair (list (float_range 0. 20.)) (float_range 0. 20.))
    (fun (xs, x) ->
      let arr = Array.of_list (List.sort Float.compare xs) in
      let key = Fun.id in
      let lo = Util.Array_util.lower_bound ~key arr x in
      let hi = Util.Array_util.upper_bound ~key arr x in
      let ok = ref (lo <= hi) in
      Array.iteri
        (fun i v ->
          if v < x && i >= lo then ok := false;
          if v >= x && i < lo then ok := false;
          if v <= x && i >= hi then ok := false;
          if v > x && i < hi then ok := false)
        arr;
      !ok)

(* ---- monotone bucket queue ---- *)

let test_bucket_basic () =
  let q = Util.Bucket_queue.create ~capacity:8 ~max_prio:5 in
  Alcotest.(check bool) "empty" true (Util.Bucket_queue.is_empty q);
  Alcotest.(check int) "pop empty = -1" (-1) (Util.Bucket_queue.pop_max q);
  Alcotest.(check int) "max_priority empty = 0" 0 (Util.Bucket_queue.max_priority q);
  List.iter
    (fun (key, prio) -> Util.Bucket_queue.push q ~key ~prio)
    [ (3, 2); (0, 5); (7, 5); (1, 1); (5, 2) ];
  Alcotest.(check int) "length" 5 (Util.Bucket_queue.length q);
  Alcotest.(check int) "capacity" 8 (Util.Bucket_queue.capacity q);
  Alcotest.(check bool) "mem 7" true (Util.Bucket_queue.mem q 7);
  Alcotest.(check bool) "mem 2" false (Util.Bucket_queue.mem q 2);
  Alcotest.(check int) "priority 3" 2 (Util.Bucket_queue.priority q 3);
  Alcotest.(check int) "priority absent = 0" 0 (Util.Bucket_queue.priority q 2);
  Alcotest.(check int) "max_priority" 5 (Util.Bucket_queue.max_priority q);
  (* (max prio, smallest key) first; ties pop in ascending key order. *)
  let drained = List.init 5 (fun _ -> Util.Bucket_queue.pop_max q) in
  Alcotest.(check (list int)) "pop order" [ 0; 7; 3; 5; 1 ] drained;
  Alcotest.(check int) "drained" (-1) (Util.Bucket_queue.pop_max q)

let test_bucket_update_remove () =
  let q = Util.Bucket_queue.create ~capacity:4 ~max_prio:9 in
  Util.Bucket_queue.push q ~key:0 ~prio:4;
  Util.Bucket_queue.push q ~key:1 ~prio:4;
  (* Decrease-key moves a member down; update of an absent key inserts;
     prio <= 0 removes. *)
  Util.Bucket_queue.update q ~key:0 ~prio:2;
  Util.Bucket_queue.update q ~key:2 ~prio:9;
  Util.Bucket_queue.update q ~key:1 ~prio:0;
  Alcotest.(check int) "first" 2 (Util.Bucket_queue.pop_max q);
  Alcotest.(check int) "second" 0 (Util.Bucket_queue.pop_max q);
  Alcotest.(check bool) "drained" true (Util.Bucket_queue.is_empty q);
  Util.Bucket_queue.push q ~key:3 ~prio:1;
  Util.Bucket_queue.remove q 3;
  Alcotest.(check bool) "removed" true (Util.Bucket_queue.is_empty q);
  Util.Bucket_queue.push q ~key:3 ~prio:1;
  Alcotest.check_raises "double push rejected"
    (Invalid_argument "Bucket_queue.push: key already queued") (fun () ->
      Util.Bucket_queue.push q ~key:3 ~prio:2);
  Alcotest.check_raises "prio above max rejected"
    (Invalid_argument "Bucket_queue.update: priority out of range") (fun () ->
      Util.Bucket_queue.update q ~key:3 ~prio:10);
  Alcotest.check_raises "key out of range"
    (Invalid_argument "Bucket_queue.mem: key out of range") (fun () ->
      ignore (Util.Bucket_queue.mem q 4))

(* Model check against a naive priority map, through arbitrary interleaved
   updates (including priority increases — the non-monotone path that
   exercises sorted insertion and cursor raising) and pops. *)
let bucket_matches_model =
  let cap = 12 and max_prio = 6 in
  Helpers.qtest "bucket queue matches naive model under update/pop churn"
    QCheck.(
      list
        (oneof
           [
             map (fun (k, p) -> `Update (k, p)) (pair (int_bound (cap - 1)) (int_bound max_prio));
             always `Pop;
           ]))
    (fun ops ->
      let q = Util.Bucket_queue.create ~capacity:cap ~max_prio in
      let model = Array.make cap 0 in
      let model_pop () =
        let best = ref (-1) in
        for k = cap - 1 downto 0 do
          if model.(k) > 0 && (!best < 0 || model.(k) >= model.(!best)) then best := k
        done;
        match !best with
        | -1 -> -1
        | k ->
          model.(k) <- 0;
          k
      in
      List.for_all
        (fun op ->
          match op with
          | `Update (key, prio) ->
            Util.Bucket_queue.update q ~key ~prio;
            model.(key) <- prio;
            Util.Bucket_queue.length q
            = Array.fold_left (fun acc p -> if p > 0 then acc + 1 else acc) 0 model
          | `Pop -> Util.Bucket_queue.pop_max q = model_pop ())
        ops
      &&
      let rec drain () =
        let k = Util.Bucket_queue.pop_max q in
        k = model_pop () && (k < 0 || drain ())
      in
      drain ())

let sort_prefix_matches_stdlib =
  Helpers.qtest "sort_ints_prefix = Array.sort on the prefix"
    QCheck.(pair (array_of_size Gen.(int_range 0 60) (int_bound 100)) small_nat)
    (fun (a, len) ->
      let len = min len (Array.length a) in
      let mine = Array.copy a in
      Util.Array_util.sort_ints_prefix mine len;
      let reference = Array.copy a in
      let prefix = Array.sub reference 0 len in
      Array.sort Int.compare prefix;
      Array.blit prefix 0 reference 0 len;
      mine = reference)

let test_rng_determinism () =
  let a = Util.Rng.create 1 and b = Util.Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Util.Rng.int a 1000) (Util.Rng.int b 1000)
  done;
  let c = Util.Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Util.Rng.int a 1000 <> Util.Rng.int c 1000 then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_uniform_mean () =
  let rng = Util.Rng.create 7 in
  let n = 20000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Util.Rng.float rng 1.
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_rng_int_range () =
  let rng = Util.Rng.create 3 in
  let seen = Array.make 7 0 in
  for _ = 1 to 7000 do
    let x = Util.Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7);
    seen.(x) <- seen.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d populated (%d)" i c)
        true (c > 700))
    seen

let test_exponential_mean () =
  let rng = Util.Rng.create 11 in
  let n = 20000 and rate = 2.5 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Util.Rng.exponential rng ~rate
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 1/rate" true (Float.abs (mean -. (1. /. rate)) < 0.02)

let test_poisson_mean_var () =
  let rng = Util.Rng.create 13 in
  let n = 20000 and mean = 6.5 in
  let r = Util.Stats.Running.create () in
  for _ = 1 to n do
    Util.Stats.Running.add r (float_of_int (Util.Rng.poisson rng ~mean))
  done;
  Alcotest.(check bool) "mean" true (Float.abs (Util.Stats.Running.mean r -. mean) < 0.15);
  Alcotest.(check bool) "variance ~ mean" true
    (Float.abs (Util.Stats.Running.variance r -. mean) < 0.5);
  Alcotest.(check int) "poisson 0" 0 (Util.Rng.poisson rng ~mean:0.)

let test_gaussian_moments () =
  let rng = Util.Rng.create 17 in
  let r = Util.Stats.Running.create () in
  for _ = 1 to 20000 do
    Util.Stats.Running.add r (Util.Rng.gaussian rng ~mu:3. ~sigma:2.)
  done;
  Alcotest.(check bool) "mu" true (Float.abs (Util.Stats.Running.mean r -. 3.) < 0.06);
  Alcotest.(check bool) "sigma" true
    (Float.abs (Util.Stats.Running.stddev r -. 2.) < 0.06)

let test_zipf_skew () =
  let rng = Util.Rng.create 19 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10000 do
    let k = Util.Rng.zipf rng ~n:10 ~s:1.2 in
    Alcotest.(check bool) "in range" true (k >= 1 && k <= 10);
    counts.(k - 1) <- counts.(k - 1) + 1
  done;
  Alcotest.(check bool) "rank 1 most frequent" true
    (counts.(0) > counts.(1) && counts.(1) > counts.(4))

let test_dirichlet_simplex () =
  let rng = Util.Rng.create 23 in
  for _ = 1 to 200 do
    let p = Util.Rng.dirichlet rng [| 0.5; 1.5; 3. |] in
    let total = Array.fold_left ( +. ) 0. p in
    Alcotest.(check bool) "sums to 1" true (Float.abs (total -. 1.) < 1e-9);
    Array.iter (fun x -> Alcotest.(check bool) "nonnegative" true (x >= 0.)) p
  done

let test_categorical () =
  let rng = Util.Rng.create 29 in
  let counts = Array.make 3 0 in
  for _ = 1 to 9000 do
    let i = Util.Rng.categorical rng [| 1.; 2.; 6. |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "ordering respected" true
    (counts.(2) > counts.(1) && counts.(1) > counts.(0));
  Alcotest.(check bool) "rough proportions" true
    (Float.abs ((float_of_int counts.(2) /. 9000.) -. (6. /. 9.)) < 0.03)

let test_sample_without_replacement () =
  let rng = Util.Rng.create 31 in
  let sample = Util.Rng.sample_without_replacement rng ~k:4 [| 1; 2; 3; 4; 5 |] in
  Alcotest.(check int) "size" 4 (List.length sample);
  Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq Int.compare sample))

let test_rng_split_independent () =
  let parent = Util.Rng.create 1 in
  let child = Util.Rng.split parent in
  (* The child must not replay the parent's stream. *)
  let parent_draws = List.init 50 (fun _ -> Util.Rng.int parent 1_000_000) in
  let child_draws = List.init 50 (fun _ -> Util.Rng.int child 1_000_000) in
  Alcotest.(check bool) "streams differ" true (parent_draws <> child_draws);
  (* And splitting is deterministic given the seed. *)
  let parent' = Util.Rng.create 1 in
  let child' = Util.Rng.split parent' in
  Alcotest.(check bool) "split reproducible" true
    (List.init 50 (fun _ -> Util.Rng.int child' 1_000_000) = child_draws)

let test_timer () =
  let result, elapsed = Util.Timer.time_it (fun () -> 41 + 1) in
  Alcotest.(check int) "result" 42 result;
  Alcotest.(check bool) "elapsed nonnegative" true (elapsed >= 0.);
  let samples = Util.Timer.repeat ~warmup:1 ~runs:3 (fun () -> ()) in
  Alcotest.(check int) "runs" 3 (Array.length samples)

let test_timer_monotonic () =
  (* The clock source is monotonic: successive readings never go backwards,
     and a real wait measures as (clamped) nonnegative elapsed time. *)
  let previous = ref (Util.Timer.now ()) in
  for _ = 1 to 1000 do
    let t = Util.Timer.now () in
    if t < !previous then Alcotest.failf "clock went backwards: %g < %g" t !previous;
    previous := t
  done;
  let (), slept = Util.Timer.time_it (fun () -> Unix.sleepf 0.01) in
  Alcotest.(check bool) "sleep measured" true (slept >= 0.005 && slept < 5.);
  Array.iter
    (fun s -> Alcotest.(check bool) "sample nonnegative" true (s >= 0.))
    (Util.Timer.repeat ~warmup:0 ~runs:5 (fun () -> ()))

let test_pool_map_matches_sequential () =
  let xs = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  List.iter
    (fun jobs ->
      Util.Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check int) "pool width" jobs (Util.Pool.jobs pool);
          Alcotest.(check (array int))
            (Printf.sprintf "map jobs=%d" jobs)
            (Array.map f xs)
            (Util.Pool.parallel_map pool ~f xs);
          (* odd chunk size exercises the ragged last chunk *)
          Alcotest.(check (array int))
            (Printf.sprintf "map jobs=%d chunk=7" jobs)
            (Array.map f xs)
            (Util.Pool.parallel_map pool ~chunk:7 ~f xs)))
    [ 1; 2; 4 ]

let test_pool_iter_chunks_partition () =
  Util.Pool.with_pool ~jobs:4 (fun pool ->
      let n = 103 in
      let hits = Array.make n 0 in
      (* each index owned by exactly one chunk: no locks needed *)
      Util.Pool.parallel_iter_chunks pool ~chunk:10 n ~f:(fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Array.iteri
        (fun i c -> if c <> 1 then Alcotest.failf "index %d visited %d times" i c)
        hits;
      (* empty range is a no-op *)
      Util.Pool.parallel_iter_chunks pool 0 ~f:(fun _ _ -> Alcotest.fail "called"))

let test_pool_exception_propagates () =
  Util.Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.check_raises "exception resurfaces" (Failure "boom") (fun () ->
          Util.Pool.parallel_for pool ~chunk:1 64 ~f:(fun i ->
              if i = 17 then failwith "boom"));
      (* the pool survives a failed task *)
      Alcotest.(check (array int)) "usable afterwards" [| 0; 2; 4 |]
        (Util.Pool.parallel_map pool ~f:(fun x -> 2 * x) [| 0; 1; 2 |]))

let test_pool_nested_runs_inline () =
  Util.Pool.with_pool ~jobs:3 (fun pool ->
      let outer =
        Util.Pool.parallel_map pool ~chunk:1
          ~f:(fun x ->
            (* nested submission degrades to inline, never deadlocks *)
            Array.fold_left ( + ) 0
              (Util.Pool.parallel_map pool ~f:(fun y -> x * y) [| 1; 2; 3 |]))
          [| 1; 2; 3; 4 |]
      in
      Alcotest.(check (array int)) "nested results" [| 6; 12; 18; 24 |] outer)

let test_pool_validation () =
  Alcotest.check_raises "jobs < 1" (Invalid_argument "Pool.create: jobs < 1")
    (fun () -> ignore (Util.Pool.create ~jobs:0));
  Util.Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.check_raises "chunk < 1"
        (Invalid_argument "Pool.parallel_iter_chunks: chunk < 1") (fun () ->
          Util.Pool.parallel_iter_chunks pool ~chunk:0 5 ~f:(fun _ _ -> ())))

let test_pool_shutdown_idempotent () =
  let pool = Util.Pool.create ~jobs:2 in
  Alcotest.(check (array int)) "works" [| 1; 2 |]
    (Util.Pool.parallel_map pool ~f:(fun x -> x + 1) [| 0; 1 |]);
  Util.Pool.shutdown pool;
  Util.Pool.shutdown pool;
  (* after shutdown tasks run inline *)
  Alcotest.(check (array int)) "inline after shutdown" [| 5 |]
    (Util.Pool.parallel_map pool ~f:(fun x -> x + 5) [| 0 |])

(* Cooperative cancellation: once [stop] reads true, queued-but-unstarted
   chunks are skipped and the call returns having run only a subset. A
   sticky always-true stop must run nothing at all. *)
let test_pool_stop_skips_chunks () =
  Util.Pool.with_pool ~jobs:4 (fun pool ->
      let n = 200 in
      let hits = Array.make n 0 in
      Util.Pool.parallel_iter_chunks pool ~chunk:10 ~stop:(fun () -> true) n
        ~f:(fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check int) "always-true stop runs nothing" 0
        (Array.fold_left ( + ) 0 hits);
      (* A stop that flips partway cancels the tail but never re-runs or
         double-runs a chunk. *)
      let executed = Atomic.make 0 in
      let tripped = Atomic.make false in
      Util.Pool.parallel_for pool ~chunk:1 ~stop:(fun () -> Atomic.get tripped) n
        ~f:(fun _ ->
          if Atomic.fetch_and_add executed 1 >= 20 then Atomic.set tripped true);
      let ran = Atomic.get executed in
      Alcotest.(check bool)
        (Printf.sprintf "partial run (%d of %d)" ran n)
        true
        (ran >= 20 && ran <= n);
      (* The pool stays healthy after a cancelled call. *)
      Alcotest.(check (array int)) "usable afterwards" [| 0; 2; 4 |]
        (Util.Pool.parallel_map pool ~f:(fun x -> 2 * x) [| 0; 1; 2 |]))

exception Payload of int list

(* Exceptions cross the pool boundary without being wrapped or rebuilt —
   budget exhaustion relies on this to carry salvaged state. *)
let test_pool_exception_payload_intact () =
  Util.Pool.with_pool ~jobs:3 (fun pool ->
      match
        Util.Pool.parallel_for pool ~chunk:1 32 ~f:(fun i ->
            if i = 13 then raise (Payload [ 4; 5; 6 ]))
      with
      | () -> Alcotest.fail "exception vanished"
      | exception Payload xs ->
        Alcotest.(check (list int)) "payload intact" [ 4; 5; 6 ] xs)

(* Worker exceptions under deterministic fault injection: a chunk that
   raises must propagate to the submitter without deadlocking the pool or
   leaking domains — the same pool must keep serving tasks through many
   failure rounds. *)
let test_pool_survives_injected_faults () =
  Util.Pool.with_pool ~jobs:4 (fun pool ->
      for round = 1 to 25 do
        let fault = Util.Fault.create ~seed:round () in
        (* Decide up front which of the 64 indices blow up this round. *)
        let bombs = Array.init 64 (fun _ -> Util.Fault.flip fault ~p:0.15) in
        let should_fail = Array.exists Fun.id bombs in
        let run () =
          Util.Pool.parallel_for pool ~chunk:1 64 ~f:(fun i ->
              if bombs.(i) then failwith (Printf.sprintf "injected %d.%d" round i))
        in
        (match run () with
        | () ->
          if should_fail then
            Alcotest.failf "round %d: injected exception vanished" round
        | exception Failure _ ->
          if not should_fail then Alcotest.failf "round %d: spurious failure" round);
        (* The pool must still work — a deadlocked or leaked domain would
           hang or crash right here. *)
        Alcotest.(check (array int))
          (Printf.sprintf "round %d: pool alive after failure" round)
          [| 0; 2; 4; 6 |]
          (Util.Pool.parallel_map pool ~f:(fun x -> 2 * x) [| 0; 1; 2; 3 |])
      done)

(* {2 Fs: atomic-write temp hygiene and append-only journals} *)

let fs_temp_dir () = Filename.temp_dir "mqdp_fs" ".d"

let test_fs_unique_temps_and_sweep () =
  let dir = fs_temp_dir () in
  Fun.protect ~finally:(fun () -> Util.Fs.remove_tree dir) @@ fun () ->
  let path = Filename.concat dir "target" in
  (* Two writers crash mid-write: their torn temps must not collide (a
     fixed suffix would make the second clobber the first). *)
  let temps =
    List.map
      (fun n ->
        match
          Util.Fs.atomic_write ~fsync:false ~crash_after:n ~path "0123456789"
        with
        | () -> Alcotest.fail "crash_after did not crash"
        | exception Util.Fs.Crashed { temp; written; _ } ->
          Alcotest.(check int) "wrote exactly the permitted prefix" n written;
          Alcotest.(check bool) "temp is recognizably temporary" true
            (Util.Fs.is_temp (Filename.basename temp));
          Alcotest.(check string) "torn prefix on disk"
            (String.sub "0123456789" 0 n)
            (Util.Fs.read temp);
          temp)
      [ 3; 5 ]
  in
  (match temps with
  | [ a; b ] -> Alcotest.(check bool) "distinct temp names" true (a <> b)
  | _ -> assert false);
  Util.Fs.atomic_write ~fsync:false ~path "final";
  Alcotest.(check int) "boot sweep removes exactly the torn temps" 2
    (Util.Fs.sweep_temps dir);
  Alcotest.(check string) "destination intact after sweep" "final"
    (Util.Fs.read path);
  Alcotest.(check int) "sweep is idempotent" 0 (Util.Fs.sweep_temps dir)

let test_fs_is_temp () =
  List.iter
    (fun (name, want) ->
      Alcotest.(check bool) name want (Util.Fs.is_temp name))
    [
      ("x.tmp.123.4", true);
      (".tmp.1.2", true);
      ("x.tmp", false);
      ("x.tmp.12", false);
      ("x.tmp.a.4", false);
      ("x.tmp.12.", false);
      ("manifest", false);
      ("shard-0.ep3.snap", false);
      ("sessions.journal", false);
    ]

let test_journal_roundtrip () =
  let dir = fs_temp_dir () in
  Fun.protect ~finally:(fun () -> Util.Fs.remove_tree dir) @@ fun () ->
  let path = Filename.concat dir "j" in
  let j, initial = Util.Fs.Journal.open_ ~fsync:false ~kind:"test" path in
  Alcotest.(check (list string)) "fresh journal is empty" [] initial;
  let payloads = [ "alpha"; "beta with spaces"; "tab\tand\\esc"; "" ] in
  List.iter (Util.Fs.Journal.append ~fsync:false j) payloads;
  Util.Fs.Journal.close j;
  let _, recovered = Util.Fs.Journal.open_ ~fsync:false ~kind:"test" path in
  Alcotest.(check (list string)) "payloads survive reopen" payloads recovered;
  let loaded, good = Util.Fs.Journal.load ~kind:"test" path in
  Alcotest.(check (list string)) "load agrees with open_" payloads loaded;
  Alcotest.(check int) "a clean tail ends at the file length"
    (Unix.stat path).Unix.st_size good

let test_journal_torn_tail_truncated () =
  let dir = fs_temp_dir () in
  Fun.protect ~finally:(fun () -> Util.Fs.remove_tree dir) @@ fun () ->
  let path = Filename.concat dir "j" in
  let j, _ = Util.Fs.Journal.open_ ~fsync:false ~kind:"t" path in
  Util.Fs.Journal.append ~fsync:false j "keep me";
  let good_len = (Unix.stat path).Unix.st_size in
  (* Tear the next append at every byte boundary ("R " tag, checksum,
     separator, payload, missing newline): recovery must always come back
     to exactly the good prefix. "torn" renders as 24 bytes. *)
  for k = 0 to 23 do
    (match Util.Fs.Journal.append ~fsync:false ~crash_after:k j "torn" with
    | () -> Alcotest.fail "crash_after did not crash"
    | exception Util.Fs.Crashed _ -> ());
    let _, survivors = Util.Fs.Journal.open_ ~fsync:false ~kind:"t" path in
    Alcotest.(check (list string))
      (Printf.sprintf "torn at byte %d truncated" k)
      [ "keep me" ] survivors;
    Alcotest.(check int)
      (Printf.sprintf "file repaired to the good prefix after tear at %d" k)
      good_len
      (Unix.stat path).Unix.st_size
  done

let test_journal_rejects_damage () =
  let dir = fs_temp_dir () in
  Fun.protect ~finally:(fun () -> Util.Fs.remove_tree dir) @@ fun () ->
  let path = Filename.concat dir "j" in
  let fresh () =
    Util.Fs.remove_if_exists path;
    let j, _ = Util.Fs.Journal.open_ ~fsync:false ~kind:"t" path in
    Util.Fs.Journal.append ~fsync:false j "first";
    Util.Fs.Journal.append ~fsync:false j "second";
    Util.Fs.Journal.close j;
    Util.Fs.read path
  in
  let expect_corrupt what content =
    Util.Fs.atomic_write ~fsync:false ~path content;
    match Util.Fs.Journal.open_ ~fsync:false ~kind:"t" path with
    | _ -> Alcotest.fail (what ^ ": damaged journal accepted")
    | exception Util.Fs.Corrupt _ -> ()
  in
  let content = fresh () in
  let hlen = String.index content '\n' + 1 in
  (* A flipped checksum digit mid-file (intact records after it) is
     corruption, not a torn tail — it must refuse, not silently drop. *)
  let flipped = Bytes.of_string content in
  Bytes.set flipped (hlen + 2) 'z';
  expect_corrupt "bad checksum mid-file" (Bytes.to_string flipped);
  (* Wrong kind and wrong version both refuse up front. *)
  expect_corrupt "wrong kind"
    ("mqdp-journal v1 other\n" ^ String.sub content hlen (String.length content - hlen));
  expect_corrupt "wrong version"
    ("mqdp-journal v99 t\n" ^ String.sub content hlen (String.length content - hlen));
  (* The same flip in the LAST record is indistinguishable from a torn
     append and is truncated away. *)
  let content = fresh () in
  let last = Bytes.of_string content in
  Bytes.set last (String.length content - 3) '!';
  Util.Fs.atomic_write ~fsync:false ~path (Bytes.to_string last);
  let _, survivors = Util.Fs.Journal.open_ ~fsync:false ~kind:"t" path in
  Alcotest.(check (list string)) "damaged tail record dropped" [ "first" ]
    survivors

let test_journal_rewrite_compacts () =
  let dir = fs_temp_dir () in
  Fun.protect ~finally:(fun () -> Util.Fs.remove_tree dir) @@ fun () ->
  let path = Filename.concat dir "j" in
  let j, _ = Util.Fs.Journal.open_ ~fsync:false ~kind:"t" path in
  List.iter (Util.Fs.Journal.append ~fsync:false j) [ "a"; "b"; "c" ];
  Util.Fs.Journal.rewrite ~fsync:false j [ "summary" ];
  (* Appends after a rewrite land in the new inode, not the old one. *)
  Util.Fs.Journal.append ~fsync:false j "d";
  Util.Fs.Journal.close j;
  let _, payloads = Util.Fs.Journal.open_ ~fsync:false ~kind:"t" path in
  Alcotest.(check (list string)) "compacted then appended" [ "summary"; "d" ]
    payloads;
  (* A crash inside the rewrite leaves the old journal intact. *)
  let j, _ = Util.Fs.Journal.open_ ~fsync:false ~kind:"t" path in
  (match Util.Fs.Journal.rewrite ~fsync:false ~crash_after:5 j [ "lost" ] with
  | () -> Alcotest.fail "rewrite crash_after did not crash"
  | exception Util.Fs.Crashed _ -> ());
  Alcotest.(check int) "crashed rewrite left its torn temp" 1
    (Util.Fs.sweep_temps dir);
  let _, payloads = Util.Fs.Journal.open_ ~fsync:false ~kind:"t" path in
  Alcotest.(check (list string)) "old journal intact after rewrite crash"
    [ "summary"; "d" ] payloads

let test_fault_deterministic () =
  let corrupt seed =
    let f = Util.Fault.create ~seed () in
    Util.Fault.corrupt f ~time:Fun.id ~retime:(fun _ v -> v)
      (List.init 200 float_of_int)
  in
  Alcotest.(check (list (float 0.))) "same seed, same feed" (corrupt 11) (corrupt 11);
  Alcotest.(check bool) "different seeds differ" true (corrupt 11 <> corrupt 12)

let test_fault_clean_is_identity () =
  let f = Util.Fault.create ~config:Util.Fault.clean ~seed:3 () in
  let xs = List.init 50 float_of_int in
  Alcotest.(check (list (float 0.))) "clean config passes through" xs
    (Util.Fault.corrupt f ~time:Fun.id ~retime:(fun _ v -> v) xs)

let test_fault_crash_points () =
  let f = Util.Fault.create ~seed:5 () in
  for _ = 1 to 50 do
    let points = Util.Fault.crash_points f ~n:30 ~max_points:4 in
    Alcotest.(check bool) "nonempty" true (points <> []);
    Alcotest.(check bool) "within bounds and sorted" true
      (List.for_all (fun k -> k >= 0 && k <= 30) points
      && List.sort_uniq Int.compare points = points)
  done

let test_fault_flip_extremes () =
  let f = Util.Fault.create ~seed:1 () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never fires" false (Util.Fault.flip f ~p:0.);
    Alcotest.(check bool) "p=1 always fires" true (Util.Fault.flip f ~p:1.)
  done;
  Alcotest.check_raises "p out of range" (Invalid_argument "Fault.flip: p outside [0, 1]")
    (fun () -> ignore (Util.Fault.flip f ~p:1.5))

let test_fault_validation () =
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Fault.create: drop_p outside [0, 1]") (fun () ->
      ignore (Util.Fault.create ~config:{ Util.Fault.clean with drop_p = 2. } ~seed:1 ()))

let test_budget_unlimited () =
  let b = Util.Budget.unlimited in
  Alcotest.(check bool) "not limited" false (Util.Budget.limited b);
  Util.Budget.add ~cost:1000 b;
  Alcotest.(check int) "never counts" 0 (Util.Budget.spent_steps b);
  Util.Budget.cancel b;
  Alcotest.(check bool) "cancel is a no-op" false (Util.Budget.is_cancelled b);
  Alcotest.(check bool) "never stops" false (Util.Budget.should_stop b);
  Alcotest.(check bool) "child is unlimited" false
    (Util.Budget.limited (Util.Budget.child b));
  Alcotest.(check string) "describe" "unlimited" (Util.Budget.describe b)

let test_budget_counting_only () =
  (* No limits set: counts steps and time, never exhausts. *)
  let b = Util.Budget.create () in
  Util.Budget.step ~cost:7 b;
  Util.Budget.step b;
  Alcotest.(check int) "steps counted" 8 (Util.Budget.spent_steps b);
  Alcotest.(check (option int)) "no step limit" None (Util.Budget.remaining_steps b);
  Alcotest.(check bool) "never exhausts" true (Util.Budget.poll b = None);
  Alcotest.(check bool) "elapsed advances" true (Util.Budget.elapsed b >= 0.)

let test_budget_steps () =
  let b = Util.Budget.create ~max_steps:3 () in
  Util.Budget.step b;
  Util.Budget.step b;
  Alcotest.(check (option int)) "one left" (Some 1) (Util.Budget.remaining_steps b);
  Alcotest.(check bool) "not yet exhausted" true (Util.Budget.poll b = None);
  Alcotest.check_raises "third step trips" (Util.Budget.Exhausted Util.Budget.Steps)
    (fun () -> Util.Budget.step b);
  (* Exhaustion is sticky. *)
  Alcotest.(check bool) "sticky" true (Util.Budget.poll b = Some Util.Budget.Steps);
  Alcotest.(check (option int)) "remaining clamps at 0" (Some 0)
    (Util.Budget.remaining_steps b)

let test_budget_deadline_and_priority () =
  let b = Util.Budget.create ~deadline:0. () in
  Alcotest.(check bool) "expired deadline trips" true
    (Util.Budget.poll b = Some Util.Budget.Deadline);
  (* Cancellation outranks an already-passed deadline. *)
  Util.Budget.cancel b;
  Alcotest.(check bool) "cancellation wins" true
    (Util.Budget.poll b = Some Util.Budget.Cancelled);
  let far = Util.Budget.create ~deadline:3600. () in
  Alcotest.(check bool) "future deadline fine" true (Util.Budget.poll far = None);
  (match Util.Budget.remaining far with
  | Some r -> Alcotest.(check bool) "remaining sane" true (r > 0. && r <= 3600.)
  | None -> Alcotest.fail "deadline budget reports no remaining time")

let test_budget_allocation () =
  let b = Util.Budget.create ~max_alloc_bytes:0. () in
  (* Allocate enough to move the minor-words counter past the (zero) cap. *)
  Sys.opaque_identity (List.init 4096 (fun i -> (i, float_of_int i))) |> ignore;
  Alcotest.(check bool) "allocation trips" true
    (Util.Budget.poll b = Some Util.Budget.Allocation)

let test_budget_child () =
  let parent = Util.Budget.create ~max_steps:100 () in
  let c = Util.Budget.child parent in
  Alcotest.(check (option int)) "child gets half the remaining steps" (Some 50)
    (Util.Budget.remaining_steps c);
  Util.Budget.add ~cost:10 c;
  Alcotest.(check int) "child steps charged to parent too" 10
    (Util.Budget.spent_steps parent);
  (* A quarter-budget grandchild of what is left. *)
  let grandchild = Util.Budget.child ~fraction:0.25 c in
  Alcotest.(check (option int)) "fraction honoured" (Some 10)
    (Util.Budget.remaining_steps grandchild);
  (* Cancelling a child leaves the parent alive; cancelling the parent
     exhausts the child transitively. *)
  Util.Budget.cancel c;
  Alcotest.(check bool) "parent unaffected by child cancel" true
    (Util.Budget.poll parent = None);
  let c2 = Util.Budget.child parent in
  Util.Budget.cancel parent;
  Alcotest.(check bool) "parent cancel reaches the child" true
    (Util.Budget.poll c2 = Some Util.Budget.Cancelled)

let test_budget_child_exhaustion_is_local () =
  (* A child that burns its own slice does not exhaust the parent. *)
  let parent = Util.Budget.create ~max_steps:100 () in
  let c = Util.Budget.child parent in
  (match Util.Budget.remaining_steps c with
  | Some m -> Util.Budget.add ~cost:m c
  | None -> Alcotest.fail "child has no step limit");
  Alcotest.(check bool) "child exhausted" true
    (Util.Budget.poll c = Some Util.Budget.Steps);
  Alcotest.(check bool) "parent still has the other half" true
    (Util.Budget.poll parent = None);
  Alcotest.(check (option int)) "parent remaining" (Some 50)
    (Util.Budget.remaining_steps parent)

let test_budget_describe_and_reasons () =
  let b = Util.Budget.create ~max_steps:5 () in
  let d = Util.Budget.describe b in
  Alcotest.(check bool) ("describe mentions steps: " ^ d) true
    (String.length d > 0 && d <> "unlimited");
  List.iter
    (fun (r, s) -> Alcotest.(check string) "reason name" s (Util.Budget.reason_to_string r))
    [
      (Util.Budget.Cancelled, "cancelled");
      (Util.Budget.Deadline, "deadline");
      (Util.Budget.Steps, "steps");
      (Util.Budget.Allocation, "allocation");
    ]

let test_budget_cross_domain_cancel () =
  (* A budget shared with another domain: cancellation from the spawned
     domain is observed by the creator on its next poll. *)
  let b = Util.Budget.create ~max_steps:1_000_000 () in
  let d = Domain.spawn (fun () -> Util.Budget.cancel b) in
  Domain.join d;
  Alcotest.(check bool) "cancel visible across domains" true
    (Util.Budget.poll b = Some Util.Budget.Cancelled)

(* Regression: [child] of a small parent used to floor the child step
   budget to 0 via int_of_float, so the child tripped Steps at its very
   first poll and a supervisor ladder could skip every speculative rung
   with budget still left. *)
let test_budget_child_step_floor () =
  let parent = Util.Budget.create ~max_steps:1 () in
  let child = Util.Budget.child parent in
  Alcotest.(check (option int)) "child floored at one step" (Some 1)
    (Util.Budget.remaining_steps child);
  Alcotest.(check bool) "child not pre-exhausted" true
    (Util.Budget.poll child = None);
  (* The floor does not mint budget: the child's step still charges the
     parent, whose own limit trips right after. *)
  Util.Budget.add child;
  Alcotest.(check bool) "parent trips once the child spends" true
    (Util.Budget.poll parent = Some Util.Budget.Steps);
  (* Tiny fractions of a larger parent floor at 1 as well. *)
  let parent = Util.Budget.create ~max_steps:10 () in
  Util.Budget.add ~cost:9 parent;
  let c = Util.Budget.child ~fraction:0.1 parent in
  Alcotest.(check (option int)) "0.1 of 1 remaining floors at 1" (Some 1)
    (Util.Budget.remaining_steps c)

let test_budget_spend_attrs () =
  Alcotest.(check (list (pair string string)))
    "unlimited attrs"
    [ ("budget", "unlimited") ]
    (Util.Budget.spend_attrs Util.Budget.unlimited);
  let b = Util.Budget.create ~max_steps:10 () in
  Util.Budget.add ~cost:4 b;
  let attrs = Util.Budget.spend_attrs b in
  Alcotest.(check (option string)) "steps spent" (Some "4")
    (List.assoc_opt "budget.steps" attrs);
  Alcotest.(check (option string)) "steps remaining" (Some "6")
    (List.assoc_opt "budget.remaining_steps" attrs);
  Alcotest.(check bool) "elapsed present" true
    (List.mem_assoc "budget.elapsed_ms" attrs)

(* Regression: [Heap.pop] used to leave the popped element (and the moved
   root's old copy) in the vacated backing-array slot, keeping it
   reachable — a space leak when elements are large. Observed through weak
   pointers: a popped payload must become collectable while the heap is
   still alive. We push exactly to the initial capacity (8) so every slot
   holds a distinct element and the check isolates pop's vacated slot from
   [push]'s growth filler. *)
let test_heap_pop_unpins_elements () =
  let n = 8 in
  let h = Util.Heap.create (fun (a, _) (b, _) -> Int.compare a b) in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    let payload = (i, Bytes.create 128) in
    Weak.set w i (Some payload);
    Util.Heap.push h payload
  done;
  ignore (Util.Heap.pop h);
  ignore (Util.Heap.pop h);
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "popped payload 0 collected" true (Weak.get w 0 = None);
  Alcotest.(check bool) "popped payload 1 collected" true (Weak.get w 1 = None);
  for i = 2 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "live payload %d retained" i)
      true
      (Weak.get w i <> None)
  done;
  ignore (Util.Heap.drain h);
  Gc.full_major ();
  Gc.full_major ();
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "drained payload %d collected" i)
      true
      (Weak.get w i = None)
  done

(* Push/pop churn across the slot-clearing path: the heap still pops in
   order and agrees with a sorted-list model. *)
let test_heap_churn () =
  let h = Util.Heap.create Int.compare in
  let model = ref [] in
  let rng = Util.Rng.create 11 in
  for _ = 1 to 2_000 do
    if Util.Rng.int rng 3 = 0 then begin
      match (Util.Heap.pop h, !model) with
      | None, [] -> ()
      | Some x, m :: rest ->
        Alcotest.(check int) "pop = model min" m x;
        model := rest
      | Some _, [] -> Alcotest.fail "heap popped from an empty model"
      | None, _ :: _ -> Alcotest.fail "heap empty while the model is not"
    end
    else begin
      let x = Util.Rng.int rng 1000 in
      Util.Heap.push h x;
      model := List.sort Int.compare (x :: !model)
    end
  done;
  Alcotest.(check (list int)) "final drain = model" !model (Util.Heap.drain h)

(* Regression: [Stats.percentile] sorted with polymorphic compare, which
   ranks NaN arbitrarily and silently poisons the interpolation; [histogram]
   fed NaN through int_of_float (undefined). Both now reject NaN. *)
let test_stats_nan_rejected () =
  Alcotest.check_raises "percentile rejects NaN"
    (Invalid_argument "Stats.percentile: NaN input")
    (fun () -> ignore (Util.Stats.percentile 50. [| 1.0; Float.nan; 2.0 |]));
  Alcotest.check_raises "histogram rejects NaN"
    (Invalid_argument "Stats.histogram: NaN input")
    (fun () ->
      ignore (Util.Stats.histogram ~buckets:4 ~lo:0. ~hi:1. [| Float.nan |]));
  (* Float.compare orders signed values correctly (p0 = min, p100 = max). *)
  let xs = [| 3.; -1.; 2.; -5. |] in
  Alcotest.(check (float 0.)) "p0 is the minimum" (-5.) (Util.Stats.percentile 0. xs);
  Alcotest.(check (float 0.)) "p100 is the maximum" 3. (Util.Stats.percentile 100. xs)

let suite =
  [
    Alcotest.test_case "heap basics" `Quick test_heap_basic;
    Alcotest.test_case "heap of_list" `Quick test_heap_of_list;
    Alcotest.test_case "max-heap via cmp" `Quick test_heap_max;
    Alcotest.test_case "heap pop unpins elements" `Quick
      test_heap_pop_unpins_elements;
    Alcotest.test_case "heap push/pop churn" `Quick test_heap_churn;
    Alcotest.test_case "stats reject NaN" `Quick test_stats_nan_rejected;
    heap_sort_is_sort;
    heap_push_pop;
    Alcotest.test_case "bucket queue basics" `Quick test_bucket_basic;
    Alcotest.test_case "bucket queue update/remove" `Quick test_bucket_update_remove;
    bucket_matches_model;
    sort_prefix_matches_stdlib;
    Alcotest.test_case "running stats" `Quick test_running_stats;
    Alcotest.test_case "percentiles" `Quick test_percentile;
    Alcotest.test_case "histogram" `Quick test_histogram;
    running_matches_batch;
    Alcotest.test_case "binary search bounds" `Quick test_bounds;
    bounds_property;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng uniform mean" `Quick test_rng_uniform_mean;
    Alcotest.test_case "rng int range & spread" `Quick test_rng_int_range;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "poisson mean/variance" `Quick test_poisson_mean_var;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "dirichlet on simplex" `Quick test_dirichlet_simplex;
    Alcotest.test_case "categorical proportions" `Quick test_categorical;
    Alcotest.test_case "sampling without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "timer" `Quick test_timer;
    Alcotest.test_case "timer monotonic" `Quick test_timer_monotonic;
    Alcotest.test_case "pool map = sequential" `Quick test_pool_map_matches_sequential;
    Alcotest.test_case "pool chunk partition" `Quick test_pool_iter_chunks_partition;
    Alcotest.test_case "pool exception propagation" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool nested submission" `Quick test_pool_nested_runs_inline;
    Alcotest.test_case "pool validation" `Quick test_pool_validation;
    Alcotest.test_case "pool shutdown idempotent" `Quick test_pool_shutdown_idempotent;
    Alcotest.test_case "pool stop skips queued chunks" `Quick test_pool_stop_skips_chunks;
    Alcotest.test_case "pool exception payload intact" `Quick
      test_pool_exception_payload_intact;
    Alcotest.test_case "pool survives injected worker faults" `Quick
      test_pool_survives_injected_faults;
    Alcotest.test_case "budget unlimited token" `Quick test_budget_unlimited;
    Alcotest.test_case "budget counting only" `Quick test_budget_counting_only;
    Alcotest.test_case "budget step limit" `Quick test_budget_steps;
    Alcotest.test_case "budget deadline & priority" `Quick
      test_budget_deadline_and_priority;
    Alcotest.test_case "budget allocation limit" `Quick test_budget_allocation;
    Alcotest.test_case "budget child slicing" `Quick test_budget_child;
    Alcotest.test_case "budget child exhaustion is local" `Quick
      test_budget_child_exhaustion_is_local;
    Alcotest.test_case "budget describe & reasons" `Quick
      test_budget_describe_and_reasons;
    Alcotest.test_case "budget cross-domain cancel" `Quick
      test_budget_cross_domain_cancel;
    Alcotest.test_case "budget child step floor" `Quick
      test_budget_child_step_floor;
    Alcotest.test_case "budget spend attrs" `Quick test_budget_spend_attrs;
    Alcotest.test_case "fs unique temps & boot sweep" `Quick
      test_fs_unique_temps_and_sweep;
    Alcotest.test_case "fs is_temp classification" `Quick test_fs_is_temp;
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal torn tail truncated at every byte" `Quick
      test_journal_torn_tail_truncated;
    Alcotest.test_case "journal rejects mid-file damage" `Quick
      test_journal_rejects_damage;
    Alcotest.test_case "journal rewrite compacts atomically" `Quick
      test_journal_rewrite_compacts;
    Alcotest.test_case "fault injector determinism" `Quick test_fault_deterministic;
    Alcotest.test_case "fault clean config is identity" `Quick
      test_fault_clean_is_identity;
    Alcotest.test_case "fault crash points" `Quick test_fault_crash_points;
    Alcotest.test_case "fault flip extremes" `Quick test_fault_flip_extremes;
    Alcotest.test_case "fault config validation" `Quick test_fault_validation;
  ]
