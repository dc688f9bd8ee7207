(* The compiled pair-index layer: every compiled fact must match a naive
   O(n²) recomputation, and the solvers running off the index must return
   exactly the covers the pre-refactor implementations produced — the
   reference implementations below are literal translations of the old
   per-solver geometry code (linear-scan best pick, per-label covered
   bytes, boxed coverer lists, hashtable pair ids). *)

open Helpers

let fixed l = Mqdp.Coverage.Fixed l

(* Deterministic per-post λ, directional like Proportional's Eq. 2. *)
let variable =
  Mqdp.Coverage.Per_post_label
    (fun p a -> 0.3 +. (0.4 *. float_of_int ((p.Mqdp.Post.id + a) mod 4)))

let both_lambdas l = [ ("fixed", fixed l); ("per-post", variable) ]

let pair_ids inst index =
  List.concat_map
    (fun a ->
      let base = Mqdp.Pair_index.label_base index a in
      List.init (Mqdp.Pair_index.label_size index a) (fun ia -> (a, base + ia)))
    (Mqdp.Instance.label_universe inst)

(* Naive coverer set of pair (a, pos): every post carrying [a] whose
   coverage interval — endpoint arithmetic, as the algorithms compute it —
   contains the pair's value. *)
let naive_coverers inst lambda a pos =
  let x = Mqdp.Instance.value inst pos in
  List.filter
    (fun k ->
      let p = Mqdp.Instance.post inst k in
      Mqdp.Label_set.mem a p.Mqdp.Post.labels
      &&
      let r = Mqdp.Coverage.radius lambda p a in
      x >= p.Mqdp.Post.value -. r && x <= p.Mqdp.Post.value +. r)
    (List.init (Mqdp.Instance.size inst) Fun.id)

(* --- reference implementations: the pre-refactor solver geometry --- *)

(* Old Scan.best_pick: binary search for a fixed λ, linear scan under a
   per-post λ. *)
let ref_best_pick inst lambda a lp x =
  match lambda with
  | Mqdp.Coverage.Fixed l ->
    let key pos = Mqdp.Instance.value inst pos in
    let j = Util.Array_util.upper_bound ~key lp (x +. l) - 1 in
    if j < 0 || Mqdp.Instance.value inst lp.(j) < x -. l then
      invalid_arg "ref_best_pick: no candidate";
    j
  | Mqdp.Coverage.Per_post_label _ ->
    let best = ref (-1) and best_reach = ref neg_infinity in
    Array.iteri
      (fun j pos ->
        let p = Mqdp.Instance.post inst pos in
        let r = Mqdp.Coverage.radius lambda p a in
        if Float.abs (p.Mqdp.Post.value -. x) <= r then begin
          let right = p.Mqdp.Post.value +. r in
          if right > !best_reach then begin
            best := j;
            best_reach := right
          end
        end)
      lp;
    if !best < 0 then invalid_arg "ref_best_pick: no candidate";
    !best

let ref_chain inst lambda a =
  let lp = Mqdp.Instance.label_posts inst a in
  let n = Array.length lp in
  let rec loop i acc =
    if i >= n then List.rev acc
    else begin
      let x = Mqdp.Instance.value inst lp.(i) in
      let j = ref_best_pick inst lambda a lp x in
      let p = Mqdp.Instance.post inst lp.(j) in
      let right = p.Mqdp.Post.value +. Mqdp.Coverage.radius lambda p a in
      let key pos = Mqdp.Instance.value inst pos in
      let next = Util.Array_util.upper_bound ~key lp right in
      loop (max next (i + 1)) ((i, j) :: acc)
    end
  in
  loop 0 []

let ref_scan inst lambda =
  List.concat_map
    (fun a ->
      let lp = Mqdp.Instance.label_posts inst a in
      List.map (fun (_, j) -> lp.(j)) (ref_chain inst lambda a))
    (Mqdp.Instance.label_universe inst)
  |> List.sort_uniq Int.compare

let ref_scan_plus inst lambda =
  let max_label = Mqdp.Instance.max_label inst in
  let covered =
    Array.init (max_label + 1) (fun a ->
        Bytes.make (Array.length (Mqdp.Instance.label_posts inst a)) '\000')
  in
  let mark_covered_by picked =
    let p = Mqdp.Instance.post inst picked in
    Mqdp.Label_set.iter
      (fun b ->
        let r = Mqdp.Coverage.radius lambda p b in
        match
          Mqdp.Instance.posts_in_range inst b ~lo:(p.Mqdp.Post.value -. r)
            ~hi:(p.Mqdp.Post.value +. r)
        with
        | None -> ()
        | Some (first, last) -> Bytes.fill covered.(b) first (last - first + 1) '\001')
      p.Mqdp.Post.labels
  in
  let picks = ref [] in
  List.iter
    (fun a ->
      let lp = Mqdp.Instance.label_posts inst a in
      let rec loop i =
        if i < Array.length lp then begin
          if Bytes.get covered.(a) i <> '\000' then loop (i + 1)
          else begin
            let x = Mqdp.Instance.value inst lp.(i) in
            let j = ref_best_pick inst lambda a lp x in
            picks := lp.(j) :: !picks;
            mark_covered_by lp.(j);
            loop (i + 1)
          end
        end
      in
      loop 0)
    (Mqdp.Instance.label_universe inst);
  List.sort_uniq Int.compare !picks

(* Old GreedySC: per-label covered bytes, boxed coverer lists under a
   per-post λ, range recomputation under a fixed λ. *)
type ref_greedy_state = {
  covered : Bytes.t array;
  gain : int array;
  coverer_lists : int list array array option;
}

let ref_greedy_setup inst lambda =
  let max_label = Mqdp.Instance.max_label inst in
  let iter_pairs_covered_by k f =
    let p = Mqdp.Instance.post inst k in
    Mqdp.Label_set.iter
      (fun a ->
        let r = Mqdp.Coverage.radius lambda p a in
        match
          Mqdp.Instance.posts_in_range inst a ~lo:(p.Mqdp.Post.value -. r)
            ~hi:(p.Mqdp.Post.value +. r)
        with
        | None -> ()
        | Some (first, last) ->
          for ia = first to last do
            f a ia
          done)
      p.Mqdp.Post.labels
  in
  let coverer_lists =
    match lambda with
    | Mqdp.Coverage.Fixed _ -> None
    | Mqdp.Coverage.Per_post_label _ ->
      let lists =
        Array.init (max_label + 1) (fun a ->
            Array.make (Array.length (Mqdp.Instance.label_posts inst a)) [])
      in
      for k = 0 to Mqdp.Instance.size inst - 1 do
        iter_pairs_covered_by k (fun a ia -> lists.(a).(ia) <- k :: lists.(a).(ia))
      done;
      Some lists
  in
  let state =
    {
      covered =
        Array.init (max_label + 1) (fun a ->
            Bytes.make (Array.length (Mqdp.Instance.label_posts inst a)) '\000');
      gain = Array.make (Mqdp.Instance.size inst) 0;
      coverer_lists;
    }
  in
  for k = 0 to Mqdp.Instance.size inst - 1 do
    iter_pairs_covered_by k (fun _ _ -> state.gain.(k) <- state.gain.(k) + 1)
  done;
  let iter_coverers a ia f =
    match state.coverer_lists with
    | Some lists -> List.iter f lists.(a).(ia)
    | None ->
      let l =
        match lambda with Mqdp.Coverage.Fixed l -> l | _ -> assert false
      in
      let lp = Mqdp.Instance.label_posts inst a in
      let x = Mqdp.Instance.value inst lp.(ia) in
      (match Mqdp.Instance.posts_in_range inst a ~lo:(x -. l) ~hi:(x +. l) with
      | None -> ()
      | Some (first, last) ->
        for j = first to last do
          f lp.(j)
        done)
  in
  let select k =
    iter_pairs_covered_by k (fun a ia ->
        if Bytes.get state.covered.(a) ia = '\000' then begin
          Bytes.set state.covered.(a) ia '\001';
          iter_coverers a ia (fun k' -> state.gain.(k') <- state.gain.(k') - 1)
        end)
  in
  (state, select)

let ref_greedy inst lambda =
  let state, select = ref_greedy_setup inst lambda in
  let rec loop acc =
    let best = ref (-1) and best_gain = ref 0 in
    Array.iteri
      (fun k g ->
        if g > !best_gain then begin
          best := k;
          best_gain := g
        end)
      state.gain;
    if !best_gain = 0 then acc
    else begin
      select !best;
      loop (!best :: acc)
    end
  in
  List.sort_uniq Int.compare (loop [])


(* Old Brute_force.build_sets: hashtable pair ids over the same label-major
   enumeration, then the shared exact engine. *)
let ref_brute inst lambda =
  if Mqdp.Instance.size inst = 0 then []
  else begin
    let pair_id = Hashtbl.create 256 in
    let next = ref 0 in
    List.iter
      (fun a ->
        Array.iteri
          (fun ia _ ->
            Hashtbl.add pair_id (a, ia) !next;
            incr next)
          (Mqdp.Instance.label_posts inst a))
      (Mqdp.Instance.label_universe inst);
    let sets =
      Array.init (Mqdp.Instance.size inst) (fun k ->
          let p = Mqdp.Instance.post inst k in
          let pairs = ref [] in
          Mqdp.Label_set.iter
            (fun a ->
              let r = Mqdp.Coverage.radius lambda p a in
              match
                Mqdp.Instance.posts_in_range inst a ~lo:(p.Mqdp.Post.value -. r)
                  ~hi:(p.Mqdp.Post.value +. r)
              with
              | None -> ()
              | Some (first, last) ->
                for ia = first to last do
                  pairs := Hashtbl.find pair_id (a, ia) :: !pairs
                done)
            p.Mqdp.Post.labels;
          Array.of_list !pairs)
    in
    Mqdp.Set_cover.minimum ~num_elements:!next sets
  end

(* --- properties --- *)

let coverers_match_naive =
  qtest ~count:150 "every pair's coverer set = naive O(n^2) recomputation"
    (arb_instance_lambda ~max_posts:20 ~max_labels:4 ())
    (fun (inst, l) ->
      List.for_all
        (fun (name, lambda) ->
          let index = Mqdp.Pair_index.build ~coverers:true inst lambda in
          List.for_all
            (fun (a, id) ->
              let compiled = ref [] in
              Mqdp.Pair_index.iter_coverers index id (fun k ->
                  compiled := k :: !compiled);
              let compiled = List.rev !compiled in
              let naive =
                naive_coverers inst lambda a (Mqdp.Pair_index.pair_pos index id)
              in
              if compiled <> naive then
                QCheck.Test.fail_reportf "%s coverers of pair %d: [%s] vs [%s] on %s"
                  name id
                  (String.concat "," (List.map string_of_int compiled))
                  (String.concat "," (List.map string_of_int naive))
                  (describe_instance inst);
              true)
            (pair_ids inst index))
        (both_lambdas l))

let best_pick_matches_reference =
  qtest ~count:150 "best_coverer = the old linear/binary best pick, every pair"
    (arb_instance_lambda ~max_posts:20 ~max_labels:4 ())
    (fun (inst, l) ->
      List.for_all
        (fun (name, lambda) ->
          let index = Mqdp.Pair_index.build ~coverers:false inst lambda in
          List.for_all
            (fun (a, id) ->
              let base = Mqdp.Pair_index.label_base index a in
              let lp = Mqdp.Instance.label_posts inst a in
              let x = Mqdp.Pair_index.pair_value index id in
              let got = Mqdp.Pair_index.best_coverer index a id - base in
              let expected = ref_best_pick inst lambda a lp x in
              if got <> expected then
                QCheck.Test.fail_reportf "%s best pick of pair %d: %d vs %d on %s"
                  name id got expected (describe_instance inst);
              true)
            (pair_ids inst index))
        (both_lambdas l))

(* Dedicated tie-rule pins. Under fixed λ the best pick is the
   furthest-right value and, among posts tied at that value, the LARGEST
   LP index — the newest arrival, which is what the Online engine emits
   for a pending tied pair (the fuzzer's StreamScan ≡ Scan invariant
   depends on this). Under per-post λ ties on reach resolve to the
   SMALLEST LP index (the sweep heap's (reach desc, index asc) order). *)
let test_best_pick_tie_rules () =
  let inst =
    instance_of
      [ post ~id:1 ~value:0. [ 0 ]; post ~id:2 ~value:1. [ 0 ];
        post ~id:3 ~value:1. [ 0 ]; post ~id:4 ~value:1. [ 0 ] ]
  in
  let fixed = Mqdp.Coverage.Fixed 1. in
  let index = Mqdp.Pair_index.build ~coverers:false inst fixed in
  let base = Mqdp.Pair_index.label_base index 0 in
  (* Pair of P1 (value 0): P2, P3, P4 are tied at the furthest value 1;
     the newest (largest LP index, position 3) must win. *)
  Alcotest.(check int) "fixed λ tie → largest LP index" (base + 3)
    (Mqdp.Pair_index.best_coverer index 0 base);
  let prop = Mqdp.Coverage.Per_post_label (fun _ _ -> 1.) in
  let index = Mqdp.Pair_index.build ~coverers:false inst prop in
  let base = Mqdp.Pair_index.label_base index 0 in
  (* Same geometry, per-post mode: P2, P3, P4 are tied at reach 2; the
     smallest LP index (position 1) must win. *)
  Alcotest.(check int) "per-post λ tie → smallest LP index" (base + 1)
    (Mqdp.Pair_index.best_coverer index 0 base)

let tie_rules_pinned =
  (* Integral values on a tiny span make value and reach ties dense; the
     naive scans below encode the two tie rules explicitly and
     independently of the library's binary-search/heap-sweep paths. *)
  qtest ~count:200 "best_coverer tie rules on tie-dense integral instances"
    QCheck.(list_of_size Gen.(int_range 1 12) (pair (int_bound 5) (int_bound 2)))
    (fun spec ->
      let inst =
        instance_of
          (List.mapi (fun id (v, a) -> post ~id ~value:(float_of_int v) [ a ]) spec)
      in
      let l = 2. in
      let fixed = Mqdp.Coverage.Fixed l in
      let prop =
        Mqdp.Coverage.Per_post_label
          (fun p _ -> if p.Mqdp.Post.id mod 2 = 0 then 2. else 1.)
      in
      let check_mode name lambda naive =
        let index = Mqdp.Pair_index.build ~coverers:false inst lambda in
        List.for_all
          (fun (a, id) ->
            let base = Mqdp.Pair_index.label_base index a in
            let lp = Mqdp.Instance.label_posts inst a in
            let x = Mqdp.Pair_index.pair_value index id in
            let got = Mqdp.Pair_index.best_coverer index a id - base in
            let expected = naive a lp x in
            if got <> expected then
              QCheck.Test.fail_reportf "%s tie pick of pair %d: %d vs %d on %s" name
                id got expected (describe_instance inst);
            true)
          (pair_ids inst index)
      in
      let naive_fixed _ lp x =
        (* candidate with the max value; >= keeps the later (larger) index. *)
        let best = ref (-1) and best_v = ref neg_infinity in
        Array.iteri
          (fun j pos ->
            let v = Mqdp.Instance.value inst pos in
            if Float.abs (v -. x) <= l && v >= !best_v then begin
              best := j;
              best_v := v
            end)
          lp;
        !best
      in
      let naive_prop a lp x =
        (* candidate with the max reach; strict > keeps the first index. *)
        let best = ref (-1) and best_r = ref neg_infinity in
        Array.iteri
          (fun j pos ->
            let p = Mqdp.Instance.post inst pos in
            let r = Mqdp.Coverage.radius prop p a in
            if Float.abs (p.Mqdp.Post.value -. x) <= r then begin
              let reach = p.Mqdp.Post.value +. r in
              if reach > !best_r then begin
                best := j;
                best_r := reach
              end
            end)
          lp;
        !best
      in
      check_mode "fixed" fixed naive_fixed && check_mode "per-post" prop naive_prop)

let reach_and_reverse_maps =
  qtest "reach, covered ranges and own pairs agree with direct recomputation"
    (arb_instance_lambda ~max_posts:20 ~max_labels:4 ())
    (fun (inst, l) ->
      List.for_all
        (fun (_, lambda) ->
          let index = Mqdp.Pair_index.build ~coverers:true inst lambda in
          (* reach of every pair *)
          List.for_all
            (fun (a, id) ->
              let p = Mqdp.Instance.post inst (Mqdp.Pair_index.pair_pos index id) in
              Mqdp.Pair_index.reach index id = Mqdp.Coverage.reach lambda p a)
            (pair_ids inst index)
          && List.for_all
               (fun k ->
                 (* pairs covered by k, via ranges = via per-pair coverer sets *)
                 let via_ranges = ref [] in
                 Mqdp.Pair_index.iter_covered_ranges index k (fun first last ->
                     for id = first to last do
                       via_ranges := id :: !via_ranges
                     done);
                 let via_coverers =
                   List.filter
                     (fun (_, id) ->
                       let mem = ref false in
                       Mqdp.Pair_index.iter_coverers index id (fun k' ->
                           if k' = k then mem := true);
                       !mem)
                     (pair_ids inst index)
                   |> List.map snd
                 in
                 List.sort Int.compare !via_ranges = via_coverers
                 &&
                 (* own pairs point back at k *)
                 let own = ref [] in
                 Mqdp.Pair_index.iter_own_pairs index k (fun id -> own := id :: !own);
                 List.for_all
                   (fun id -> Mqdp.Pair_index.pair_pos index id = k)
                   !own
                 && List.length !own
                    = Mqdp.Label_set.cardinal (Mqdp.Instance.labels inst k))
               (List.init (Mqdp.Instance.size inst) Fun.id))
        (both_lambdas l))

let solvers_match_pre_refactor =
  qtest ~count:120
    "greedy/scan/scan+/brute match the pre-refactor covers"
    (arb_instance_lambda ~max_posts:16 ~max_labels:4 ())
    (fun (inst, l) ->
      List.for_all
        (fun (name, lambda) ->
          List.for_all
            (fun (algo, reference, solve) ->
              let expected = reference inst lambda in
              let got = solve inst lambda in
              if got <> expected then
                QCheck.Test.fail_reportf "%s/%s: [%s] vs reference [%s] on %s" algo
                  name
                  (String.concat "," (List.map string_of_int got))
                  (String.concat "," (List.map string_of_int expected))
                  (describe_instance inst);
              true)
            [ ("greedy", ref_greedy, fun i lm -> Mqdp.Greedy_sc.solve i lm);
              ("scan", ref_scan, fun i lm -> Mqdp.Scan.solve i lm);
              ("scan+", ref_scan_plus, fun i lm -> Mqdp.Scan.solve_plus i lm);
              ("brute", ref_brute, fun i lm -> Mqdp.Brute_force.solve i lm) ])
        (both_lambdas l))

let parallel_build_identical =
  qtest ~count:60 "jobs=4 covers = jobs=1 covers, both λ modes, all four solvers"
    (arb_instance_lambda ~max_posts:25 ~max_labels:4 ~span:20. ())
    (fun (inst, l) ->
      List.for_all
        (fun (_, lambda) ->
          List.for_all
            (fun algo ->
              (Mqdp.Solver.solve ~jobs:4 algo inst lambda).Mqdp.Solver.cover
              = (Mqdp.Solver.solve algo inst lambda).Mqdp.Solver.cover)
            [ Mqdp.Solver.Greedy_sc; Mqdp.Solver.Scan; Mqdp.Solver.Scan_plus ])
        (both_lambdas l))

let compiled_facade_consistent =
  qtest ~count:60 "Solver.solve_compiled = Solver.solve on a shared index"
    (arb_instance_lambda ~max_posts:14 ~max_labels:3 ())
    (fun (inst, l) ->
      List.for_all
        (fun (_, lambda) ->
          let index = Mqdp.Solver.compile inst lambda in
          let algorithms =
            match lambda with
            | Mqdp.Coverage.Fixed _ -> Mqdp.Solver.all_algorithms
            | Mqdp.Coverage.Per_post_label _ ->
              (* OPT requires a fixed λ. *)
              [ Mqdp.Solver.Brute_force; Mqdp.Solver.Greedy_sc; Mqdp.Solver.Scan;
                Mqdp.Solver.Scan_plus ]
          in
          List.for_all
            (fun algo ->
              (Mqdp.Solver.solve_compiled algo index).Mqdp.Solver.cover
              = (Mqdp.Solver.solve algo inst lambda).Mqdp.Solver.cover)
            algorithms)
        (both_lambdas l))

(* --- unit cases --- *)

let test_layout () =
  let inst =
    instance_of
      [ post ~id:1 ~value:0. [ 0; 2 ]; post ~id:2 ~value:1. [ 0 ];
        post ~id:3 ~value:2. [ 2 ] ]
  in
  let index = Mqdp.Pair_index.build inst (fixed 1.) in
  Alcotest.(check int) "total pairs" 4 (Mqdp.Pair_index.total_pairs index);
  Alcotest.(check int) "base 0" 0 (Mqdp.Pair_index.label_base index 0);
  Alcotest.(check int) "size 0" 2 (Mqdp.Pair_index.label_size index 0);
  Alcotest.(check int) "base 2" 2 (Mqdp.Pair_index.label_base index 2);
  Alcotest.(check int) "size 2" 2 (Mqdp.Pair_index.label_size index 2);
  Alcotest.(check int) "unused label size" 0 (Mqdp.Pair_index.label_size index 1);
  Alcotest.(check int) "pair 1 position" 1 (Mqdp.Pair_index.pair_pos index 1);
  Alcotest.(check (float 0.)) "pair 3 value" 2. (Mqdp.Pair_index.pair_value index 3);
  Alcotest.(check (float 0.)) "pair 3 reach" 3. (Mqdp.Pair_index.reach index 3);
  Alcotest.(check int) "first_above" 1 (Mqdp.Pair_index.first_above index 0 0.5)

let test_empty () =
  let index = Mqdp.Pair_index.build (instance_of []) (fixed 1.) in
  Alcotest.(check int) "no pairs" 0 (Mqdp.Pair_index.total_pairs index)

let test_absent_coverers_guarded () =
  let inst = instance_of [ post ~id:1 ~value:0. [ 0 ] ] in
  let index = Mqdp.Pair_index.build ~coverers:false inst variable in
  Alcotest.check_raises "guarded"
    (Invalid_argument "Pair_index.iter_coverers: built with ~coverers:false")
    (fun () -> Mqdp.Pair_index.iter_coverers index 0 ignore)

let suite =
  [
    Alcotest.test_case "layout on a small instance" `Quick test_layout;
    Alcotest.test_case "empty instance" `Quick test_empty;
    Alcotest.test_case "coverers guarded when not built" `Quick
      test_absent_coverers_guarded;
    coverers_match_naive;
    best_pick_matches_reference;
    Alcotest.test_case "best-pick tie rules (crafted ties)" `Quick
      test_best_pick_tie_rules;
    tie_rules_pinned;
    reach_and_reverse_maps;
    solvers_match_pre_refactor;
    parallel_build_identical;
    compiled_facade_consistent;
  ]
