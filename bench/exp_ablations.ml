(* Ablations called out in DESIGN.md: proportional lambda (paper §6),
   Scan+ label ordering (§4.3), and the hardness reductions (§3). *)

let abl_proportional () =
  Harness.section ~id:"ablA"
    ~paper:"§6 ablation: proportional diversity through variable lambda (Eq. 2)"
    ~expect:
      "under Eq. 2 the dense (bursty) half of the stream keeps a larger \
       share of the representatives than under the fixed lambda, without \
       starving the quiet half";
  (* A two-phase stream: a busy first hour (12 posts/min) and a quiet
     second hour (2 posts/min), so the dense region is known. *)
  let phase ~seed ~rate ~offset ~id_base =
    Workload.Direct_gen.generate
      { (Workload.Direct_gen.default_config ~num_labels:3 ~seed) with
        Workload.Direct_gen.duration = 3600.;
        rate_per_min = rate }
    |> List.map (fun p ->
           Mqdp.Post.make ~id:(p.Mqdp.Post.id + id_base)
             ~value:(p.Mqdp.Post.value +. offset) ~labels:p.Mqdp.Post.labels)
  in
  let inst =
    Mqdp.Instance.create
      (phase ~seed:77 ~rate:12. ~offset:0. ~id_base:0
      @ phase ~seed:78 ~rate:2. ~offset:3600. ~id_base:1_000_000)
  in
  let lambda0 = 120. in
  let n = Mqdp.Instance.size inst in
  let share cover =
    let early =
      List.length
        (List.filter (fun i -> Mqdp.Instance.value inst i < 3600.) cover)
    in
    float_of_int early /. float_of_int (max 1 (List.length cover))
  in
  let input_share =
    share (List.init n Fun.id)
  in
  let fixed_cover = Mqdp.Greedy_sc.solve inst (Mqdp.Coverage.Fixed lambda0) in
  let prop_lambda = Mqdp.Proportional.make ~lambda0 inst in
  let prop_cover = Mqdp.Greedy_sc.solve inst prop_lambda in
  Printf.printf "scale: %d posts over 2h (12/min then 2/min), lambda0 = %.0fs\n\n" n lambda0;
  Harness.table
    [ "selection"; "|Z|"; "dense-half share" ]
    [
      [ "input stream"; string_of_int n; Harness.f3 input_share ];
      [ "fixed lambda"; string_of_int (List.length fixed_cover);
        Harness.f3 (share fixed_cover) ];
      [ "proportional (Eq. 2)"; string_of_int (List.length prop_cover);
        Harness.f3 (share prop_cover) ];
    ];
  Printf.printf
    "\nper-label representation ratio (1 = proportional to input share):\n";
  let rep cover = Mqdp.Metrics.label_representation inst cover in
  Harness.table
    ("label" :: "input pairs" :: [ "fixed"; "proportional" ])
    (List.map
       (fun a ->
         [ string_of_int a;
           string_of_int (Array.length (Mqdp.Instance.label_posts inst a));
           Harness.f3 (List.assoc a (rep fixed_cover));
           Harness.f3 (List.assoc a (rep prop_cover)) ])
       (Mqdp.Instance.label_universe inst))

let abl_scan_order () =
  Harness.section ~id:"ablB"
    ~paper:"§4.3 ablation: Scan+ label processing order"
    ~expect:
      "the order matters and any Scan+ order beats plain Scan; empirically, \
       processing rare labels first wins on skewed workloads — their \
       constrained picks double as coverage for the frequent labels";
  let orders =
    [ ("given", Mqdp.Scan.Given);
      ("most-frequent-first", Mqdp.Scan.Most_frequent_first);
      ("least-frequent-first", Mqdp.Scan.Least_frequent_first) ]
  in
  Printf.printf "scale: 10-min slices, |L| = 8, skewed labels, 20 seeds\n\n";
  let rows =
    List.map
      (fun (name, order) ->
        let mean_size =
          Harness.mean_over_seeds ~seeds:20 (fun seed ->
              let inst =
                Workloads.ten_minute ~rate:30. ~overlap:1.8 ~labels:8 ~seed ()
              in
              float_of_int
                (List.length
                   (Mqdp.Scan.solve_plus ~order inst (Mqdp.Coverage.Fixed 15.))))
        in
        [ name; Harness.f2 mean_size ])
      orders
  in
  let scan_size =
    Harness.mean_over_seeds ~seeds:20 (fun seed ->
        let inst = Workloads.ten_minute ~rate:30. ~overlap:1.8 ~labels:8 ~seed () in
        float_of_int (List.length (Mqdp.Scan.solve inst (Mqdp.Coverage.Fixed 15.))))
  in
  Harness.table [ "order"; "mean |Z|" ]
    (rows @ [ [ "(plain scan)"; Harness.f2 scan_size ] ])

let abl_hardness () =
  Harness.section ~id:"ablC"
    ~paper:"§3 ablation: the NP-hardness reductions, executed"
    ~expect:
      "the sound set-cover reduction agrees with DPLL on every formula; the \
       published Lemma 1 construction only guarantees the forward direction \
       (see the pinned gap below)";
  let formulas =
    List.init 12 (fun i ->
        Sat.Cnf.random ~seed:(i + 1) ~num_vars:(1 + (i mod 2))
          ~num_clauses:(1 + (i mod 3)) ~clause_size:(1 + (i mod 2)))
  in
  let rows =
    List.map
      (fun cnf ->
        let sat = Sat.Dpll.satisfiable cnf in
        let l1 = Mqdp.Hardness.of_cnf cnf in
        let l1_min =
          match
            Mqdp.Brute_force.solve ~max_nodes:5_000_000 l1.Mqdp.Hardness.instance
              l1.Mqdp.Hardness.lambda
          with
          | cover -> Some (List.length cover)
          | exception Mqdp.Brute_force.Too_large _ -> None
        in
        let sc = Mqdp.Hardness.of_cnf_set_cover cnf in
        let sc_agrees = Mqdp.Hardness.satisfiable_via_cover sc = sat in
        let l1_cell, verdict =
          match l1_min with
          | None -> ("intractable", "-")
          | Some m ->
            ( string_of_int m,
              if (m <= l1.Mqdp.Hardness.budget) = sat then "agrees" else "GAP" )
        in
        [ Format.asprintf "%a" Sat.Cnf.pp cnf;
          (if sat then "sat" else "unsat");
          string_of_int l1.Mqdp.Hardness.budget;
          l1_cell;
          verdict;
          (if sc_agrees then "agrees" else "BROKEN") ])
      formulas
  in
  Harness.table
    [ "formula"; "dpll"; "L1 budget"; "L1 min cover"; "lemma-1"; "set-cover" ]
    rows;
  Printf.printf
    "\npinned counterexample: (x1) & (~x1) is unsat, Lemma 1 budget 7, but the\n\
     instance has a valid 6-post cover mixing both literal chains — the\n\
     published uniqueness argument over-counts (see DESIGN.md).\n"

let abl_spatial () =
  Harness.section ~id:"ablD"
    ~paper:"§9 future work, implemented: spatiotemporal diversification"
    ~expect:
      "a time-only cover misses geographically distant pairs; the \
       spatiotemporal greedy covers fully, with size shrinking as the \
       radius grows";
  let config =
    { (Workload.Geo_gen.default_config ~num_labels:4 ~seed:9) with
      Workload.Geo_gen.duration = 3600.;
      rate_per_min = 10. }
  in
  let geo = Workload.Geo_gen.instance config in
  let n = Mqdp.Spatial.size geo in
  Printf.printf "scale: %d geotagged posts over 1h, 4 labels, 2 event centers each\n\n" n;
  let lambda_time = 300. in
  (* The 1-D solver on the same timestamps, blind to geography. *)
  let time_only_instance =
    Mqdp.Instance.create
      (List.init n (fun i ->
           let p = Mqdp.Spatial.post geo i in
           Mqdp.Post.make ~id:p.Mqdp.Spatial.id ~value:p.Mqdp.Spatial.time
             ~labels:p.Mqdp.Spatial.labels))
  in
  let time_only = Mqdp.Greedy_sc.solve time_only_instance (Mqdp.Coverage.Fixed lambda_time) in
  let pair_fraction thresholds cover =
    let bad = List.length (Mqdp.Spatial.uncovered geo thresholds cover) in
    let total =
      List.init n (fun i ->
          Mqdp.Label_set.cardinal (Mqdp.Spatial.post geo i).Mqdp.Spatial.labels)
      |> List.fold_left ( + ) 0
    in
    float_of_int (total - bad) /. float_of_int (max 1 total)
  in
  let rows =
    List.map
      (fun radius_km ->
        let thresholds = { Mqdp.Spatial.lambda_time; radius_km } in
        let spatial_cover = Mqdp.Spatial.greedy geo thresholds in
        [ Harness.f2 radius_km;
          string_of_int (List.length spatial_cover);
          (if Mqdp.Spatial.is_cover geo thresholds spatial_cover then "yes" else "NO");
          Harness.f3 (pair_fraction thresholds time_only) ])
      [ 25.; 50.; 100.; 500.; 20000. ]
  in
  Printf.printf "time-only greedy cover: %d posts (lambda_t = %gs)\n\n"
    (List.length time_only) lambda_time;
  Harness.table
    [ "radius km"; "spatial |Z|"; "spatial covers?"; "time-only pair coverage" ]
    rows;
  Printf.printf
    "\nat a planetary radius the spatial solution degenerates to the 1-D one,\n\
     and the time-only cover becomes complete — the extension is conservative.\n"

let abl_baselines () =
  Harness.section ~id:"ablE"
    ~paper:"§8 comparison: coverage vs classic diversification baselines"
    ~expect:
      "at the same budget k = |GreedySC cover|, label-blind baselines \
       (uniform / random / max-min dispersion) leave 10-40% of the \
       (post,label) pairs uncovered";
  Printf.printf "scale: 10-min slices, |L| = 5, overlap 1.5, 10 seeds\n\n";
  let lambda = Mqdp.Coverage.Fixed 20. in
  let stats name select =
    let mean =
      Harness.mean_over_seeds ~seeds:10 (fun seed ->
          let inst = Workloads.ten_minute ~rate:30. ~overlap:1.5 ~labels:5 ~seed () in
          let budget = List.length (Mqdp.Greedy_sc.solve inst lambda) in
          Mqdp.Baselines.coverage_fraction inst lambda (select inst ~k:budget ~seed))
    in
    [ name; Harness.f3 mean ]
  in
  Harness.table
    [ "selector (same budget)"; "pair coverage" ]
    [
      stats "greedy-sc (MQDP)" (fun inst ~k:_ ~seed:_ ->
          Mqdp.Greedy_sc.solve inst lambda);
      stats "uniform quantiles" (fun inst ~k ~seed:_ -> Mqdp.Baselines.uniform inst ~k);
      stats "max-min dispersion" (fun inst ~k ~seed:_ ->
          Mqdp.Baselines.max_min_dispersion inst ~k);
      stats "random sample" (fun inst ~k ~seed ->
          Mqdp.Baselines.random_sample ~seed inst ~k);
    ]

let abl_greedy_selection () =
  Harness.section ~id:"ablF"
    ~paper:"§7.3 implementation note: GreedySC max-selection, priority queue vs linear scan"
    ~expect:
      "the paper found heap maintenance not worth it on their data and \
       shipped the linear re-scan; the bucket queue wins anyway by making \
       decrease-key O(1)";
  List.iter
    (fun labels ->
      let inst = Workloads.one_day ~labels ~seed:42 in
      Printf.printf "\n|L| = %d (%d posts):\n" labels (Mqdp.Instance.size inst);
      let rows =
        List.map
          (fun lambda_s ->
            let lambda = Mqdp.Coverage.Fixed lambda_s in
            let time selection =
              Harness.us
                (Harness.time_per_post
                   (fun inst -> Mqdp.Greedy_sc.solve ~selection inst lambda)
                   inst)
            in
            let size =
              List.length (Mqdp.Greedy_sc.solve ~selection:`Linear_scan inst lambda)
            in
            [ Printf.sprintf "%.0f" lambda_s; string_of_int size;
              time `Linear_scan; time `Bucket_queue ])
          [ 60.; 300.; 1800. ]
      in
      Harness.table [ "lambda(s)"; "|Z|"; "linear us/post"; "bucket us/post" ]
        rows)
    [ 2; 20 ]
