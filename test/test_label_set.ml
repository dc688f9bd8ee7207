(* Label_set: unit cases plus a model-based property check against the
   stdlib Set over the same elements. *)

module Ls = Mqdp.Label_set
module IntSet = Set.Make (Int)

let to_model s = IntSet.of_list (Ls.to_list s)
let of_model m = Ls.of_list (IntSet.elements m)

let test_empty () =
  Alcotest.(check bool) "empty is empty" true (Ls.is_empty Ls.empty);
  Alcotest.(check int) "cardinal 0" 0 (Ls.cardinal Ls.empty);
  Alcotest.(check (list int)) "no elements" [] (Ls.to_list Ls.empty)

let test_singleton () =
  let s = Ls.singleton 7 in
  Alcotest.(check bool) "mem 7" true (Ls.mem 7 s);
  Alcotest.(check bool) "not mem 6" false (Ls.mem 6 s);
  Alcotest.(check int) "cardinal" 1 (Ls.cardinal s);
  Alcotest.(check (list int)) "elements" [ 7 ] (Ls.to_list s)

let test_large_labels () =
  (* Crosses the 62-bit word boundary. *)
  let s = Ls.of_list [ 0; 61; 62; 63; 124; 200 ] in
  Alcotest.(check int) "cardinal" 6 (Ls.cardinal s);
  List.iter
    (fun x -> Alcotest.(check bool) (string_of_int x) true (Ls.mem x s))
    [ 0; 61; 62; 63; 124; 200 ];
  Alcotest.(check bool) "not mem 199" false (Ls.mem 199 s)

let test_add_remove () =
  let s = Ls.add 3 (Ls.add 1 Ls.empty) in
  Alcotest.(check (list int)) "add" [ 1; 3 ] (Ls.to_list s);
  let s = Ls.remove 1 s in
  Alcotest.(check (list int)) "remove" [ 3 ] (Ls.to_list s);
  Alcotest.(check bool) "remove absent is identity" true
    (Ls.equal s (Ls.remove 99 s))

let test_trim_invariant () =
  (* Removing the top element must trim so equality stays structural. *)
  let s = Ls.remove 200 (Ls.of_list [ 1; 200 ]) in
  Alcotest.(check bool) "equal singleton" true (Ls.equal s (Ls.singleton 1));
  Alcotest.(check bool) "diff to empty" true
    (Ls.equal Ls.empty (Ls.diff (Ls.of_list [ 70 ]) (Ls.of_list [ 70; 1 ])))

let test_set_ops () =
  let a = Ls.of_list [ 1; 2; 3 ] and b = Ls.of_list [ 2; 3; 4 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Ls.to_list (Ls.union a b));
  Alcotest.(check (list int)) "inter" [ 2; 3 ] (Ls.to_list (Ls.inter a b));
  Alcotest.(check (list int)) "diff" [ 1 ] (Ls.to_list (Ls.diff a b));
  Alcotest.(check bool) "subset no" false (Ls.subset a b);
  Alcotest.(check bool) "subset yes" true (Ls.subset (Ls.of_list [ 2; 3 ]) a);
  Alcotest.(check bool) "disjoint no" false (Ls.disjoint a b);
  Alcotest.(check bool) "disjoint yes" true
    (Ls.disjoint a (Ls.of_list [ 5; 70 ]))

let test_choose_max () =
  let s = Ls.of_list [ 5; 99; 12 ] in
  Alcotest.(check int) "choose = min" 5 (Ls.choose s);
  Alcotest.(check int) "max_label" 99 (Ls.max_label s);
  Alcotest.check_raises "choose empty" Not_found (fun () ->
      ignore (Ls.choose Ls.empty))

let test_negative_rejected () =
  Alcotest.check_raises "add -1"
    (Invalid_argument "Label_set.add: negative label") (fun () ->
      ignore (Ls.add (-1) Ls.empty))

let arb_labels =
  QCheck.(list_of_size Gen.(int_range 0 12) (int_range 0 130))

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "singleton" `Quick test_singleton;
    Alcotest.test_case "large labels" `Quick test_large_labels;
    Alcotest.test_case "add/remove" `Quick test_add_remove;
    Alcotest.test_case "trim invariant" `Quick test_trim_invariant;
    Alcotest.test_case "set operations" `Quick test_set_ops;
    Alcotest.test_case "choose/max" `Quick test_choose_max;
    Alcotest.test_case "negative labels rejected" `Quick test_negative_rejected;
    Helpers.qtest "to_list sorted & unique" arb_labels (fun xs ->
        let l = Ls.to_list (Ls.of_list xs) in
        l = List.sort_uniq Int.compare xs);
    Helpers.qtest "union agrees with model" (QCheck.pair arb_labels arb_labels)
      (fun (xs, ys) ->
        let a = Ls.of_list xs and b = Ls.of_list ys in
        IntSet.equal (to_model (Ls.union a b))
          (IntSet.union (to_model a) (to_model b)));
    Helpers.qtest "inter agrees with model" (QCheck.pair arb_labels arb_labels)
      (fun (xs, ys) ->
        let a = Ls.of_list xs and b = Ls.of_list ys in
        IntSet.equal (to_model (Ls.inter a b))
          (IntSet.inter (to_model a) (to_model b)));
    Helpers.qtest "diff agrees with model" (QCheck.pair arb_labels arb_labels)
      (fun (xs, ys) ->
        let a = Ls.of_list xs and b = Ls.of_list ys in
        IntSet.equal (to_model (Ls.diff a b))
          (IntSet.diff (to_model a) (to_model b)));
    Helpers.qtest "structural equality is set equality"
      (QCheck.pair arb_labels arb_labels)
      (fun (xs, ys) ->
        let a = Ls.of_list xs and b = Ls.of_list ys in
        Ls.equal a b = IntSet.equal (to_model a) (to_model b));
    Helpers.qtest "subset agrees with model" (QCheck.pair arb_labels arb_labels)
      (fun (xs, ys) ->
        let a = Ls.of_list xs and b = Ls.of_list ys in
        Ls.subset a b = IntSet.subset (to_model a) (to_model b));
    Helpers.qtest "disjoint iff empty inter" (QCheck.pair arb_labels arb_labels)
      (fun (xs, ys) ->
        let a = Ls.of_list xs and b = Ls.of_list ys in
        Ls.disjoint a b = Ls.is_empty (Ls.inter a b));
    Helpers.qtest "fold visits cardinal elements" arb_labels (fun xs ->
        let s = Ls.of_list xs in
        Ls.fold (fun _ acc -> acc + 1) s 0 = Ls.cardinal s);
    Helpers.qtest "roundtrip through model" arb_labels (fun xs ->
        let s = Ls.of_list xs in
        Ls.equal s (of_model (to_model s)));
  ]

(* Label.Table — the interning registry. *)

let test_label_table () =
  let table = Mqdp.Label.Table.create () in
  let a = Mqdp.Label.Table.intern table "politics" in
  let b = Mqdp.Label.Table.intern table "sports" in
  let a' = Mqdp.Label.Table.intern table "politics" in
  Alcotest.(check int) "dense ids from 0" 0 a;
  Alcotest.(check int) "second id" 1 b;
  Alcotest.(check int) "interning is idempotent" a a';
  Alcotest.(check int) "count" 2 (Mqdp.Label.Table.count table);
  Alcotest.(check string) "name" "politics" (Mqdp.Label.Table.name table a);
  Alcotest.(check (option int)) "find known" (Some 1)
    (Mqdp.Label.Table.find table "sports");
  Alcotest.(check (option int)) "find unknown" None
    (Mqdp.Label.Table.find table "weather");
  Alcotest.(check (array string)) "names in id order" [| "politics"; "sports" |]
    (Mqdp.Label.Table.names table);
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Label.Table.name: unknown id") (fun () ->
      ignore (Mqdp.Label.Table.name table 99))

let table_roundtrip =
  Helpers.qtest "Label.Table intern/name roundtrip"
    QCheck.(list_of_size Gen.(int_range 1 30) printable_string)
    (fun names ->
      let table = Mqdp.Label.Table.create () in
      let ids = List.map (Mqdp.Label.Table.intern table) names in
      List.for_all2 (fun name id -> Mqdp.Label.Table.name table id = name) names ids
      && Mqdp.Label.Table.count table
         = List.length (List.sort_uniq String.compare names))

(* Over labels 0-130, three words: [c] the intersection itself, one
   label more or less than it, or unrelated. *)
let inter_equal_property =
  Helpers.qtest "inter_equal a b c = equal (inter a b) c"
    (QCheck.triple arb_labels arb_labels arb_labels)
    (fun (xs, ys, zs) ->
      let a = Ls.of_list xs and b = Ls.of_list ys and c = Ls.of_list zs in
      let i = Ls.inter a b in
      Ls.inter_equal a b c = Ls.equal i c
      && Ls.inter_equal a b i
      && List.for_all (fun z -> Ls.inter_equal a b (Ls.add z i) = Ls.mem z i) zs
      && List.for_all (fun z -> not (Ls.inter_equal a b (Ls.remove z i)) || not (Ls.mem z i)) xs)

let suite =
  suite
  @ [
      Alcotest.test_case "Label.Table basics" `Quick test_label_table;
      table_roundtrip;
      inter_equal_property;
    ]
