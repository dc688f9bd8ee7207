(* Solve-kernel matrix: queue variant x marking variant x instance size,
   with a hard throughput regression gate (styled after the telemetry
   overhead guard: print the numbers, exit 1 on breach).

   The "legacy" column is the pre-overhaul GreedySC, reconstructed over
   the public iterator API: closure-driven marking (iter_covered_ranges +
   iter_coverers per newly covered pair), a per-round linear argmax, and
   list-consed picks canonicalized with List.sort_uniq. The two library
   variants run the fused apply_pick kernel and differ only in selection.
   Covers must be bit-identical across all three on every cell; the gate
   requires the default bucket-queue kernel to clear 2x legacy throughput
   on the largest instance. *)

let legacy_solve index =
  let n = Mqdp.Instance.size (Mqdp.Pair_index.instance index) in
  let covered = Bytes.make (Mqdp.Pair_index.total_pairs index) '\000' in
  let gain = Array.init n (fun k -> Mqdp.Pair_index.covered_count index k) in
  let select k =
    Mqdp.Pair_index.iter_covered_ranges index k (fun first last ->
        for id = first to last do
          if Bytes.get covered id = '\000' then begin
            Bytes.set covered id '\001';
            Mqdp.Pair_index.iter_coverers index id (fun k' ->
                gain.(k') <- gain.(k') - 1)
          end
        done)
  in
  let rec loop acc =
    let best = ref (-1) and best_gain = ref 0 in
    for k = 0 to n - 1 do
      if gain.(k) > !best_gain then begin
        best := k;
        best_gain := gain.(k)
      end
    done;
    if !best < 0 then acc
    else begin
      select !best;
      loop (!best :: acc)
    end
  in
  List.sort_uniq Int.compare (loop [])

let variants = [ ("linear", `Linear_scan); ("bucket", `Bucket_queue) ]

type cell = {
  name : string;
  posts : int;
  legacy_t : float;
  bucket_t : float;
  row : string list;
}

let run_cell ~name ~largest inst lambda =
  let index = Mqdp.Solver.compile inst lambda in
  let posts = Mqdp.Instance.size inst in
  let time f = Util.Timer.best_of ~runs:3 f in
  let reference = legacy_solve index in
  let legacy_t = time (fun () -> legacy_solve index) in
  let timed =
    List.map
      (fun (vname, selection) ->
        let cover = Mqdp.Greedy_sc.solve_indexed ~selection index in
        if not (List.equal Int.equal cover reference) then begin
          Printf.eprintf "FAIL: %s/%s cover diverged from legacy\n" name vname;
          exit 1
        end;
        (vname, time (fun () -> ignore (Mqdp.Greedy_sc.solve_indexed ~selection index))))
      variants
  in
  let bucket_t = List.assoc "bucket" timed in
  let us_per_post t = Printf.sprintf "%.2f" (t *. 1e6 /. float_of_int posts) in
  {
    name;
    posts;
    legacy_t;
    bucket_t;
    row =
      [ name ^ (if largest then " *" else "");
        string_of_int posts;
        us_per_post legacy_t ]
      @ List.map (fun (_, t) -> us_per_post t) timed
      @ [ Printf.sprintf "%.1fx" (legacy_t /. bucket_t); "identical" ];
  }

let run () =
  Harness.section ~id:"kernels"
    ~paper:"(repo) solve-kernel matrix: selection variant x lambda mode x size"
    ~expect:
      "bucket >= linear >= legacy throughput on large instances; covers \
       bit-identical everywhere; bucket clears 2x legacy on the largest \
       instance (gated)";
  let instances =
    [ ("10min/L5", Workloads.ten_minute ~rate:30. ~labels:5 ~seed:7 ());
      ("1day/L5", Workloads.one_day ~labels:5 ~seed:3);
      ("1day/L20", Workloads.one_day ~labels:20 ~seed:3) ]
  in
  let cells =
    List.concat_map
      (fun (iname, inst) ->
        let largest = iname = "1day/L20" in
        [ run_cell ~name:(iname ^ "/fixed") ~largest inst (Mqdp.Coverage.Fixed 30.);
          run_cell ~name:(iname ^ "/prop") ~largest:false inst
            (Mqdp.Proportional.make ~lambda0:30. inst) ])
      instances
  in
  Harness.table
    [ "instance/lambda"; "posts"; "legacy us/post"; "linear us/post";
      "bucket us/post"; "bucket speedup"; "cover" ]
    (List.map (fun c -> c.row) cells);
  (* The gate: the default kernel must hold >= 2x single-core throughput
     over the pre-overhaul implementation on the largest fixed-lambda
     instance (the scaling workload). *)
  let gated = List.find (fun c -> c.name = "1day/L20/fixed") cells in
  Printf.printf
    "\nthroughput gate (1day/L20, fixed lambda): legacy %.1f ms, bucket %.1f ms \
     (%.1fx, bound 2x)\n"
    (gated.legacy_t *. 1e3) (gated.bucket_t *. 1e3)
    (gated.legacy_t /. gated.bucket_t);
  if gated.bucket_t > gated.legacy_t /. 2. then begin
    Printf.eprintf "FAIL: bucket kernel below 2x legacy throughput (%.2fx)\n"
      (gated.legacy_t /. gated.bucket_t);
    exit 1
  end;
  Printf.printf "throughput gate: OK\n"
