(* Source lints for the hot path. Polymorphic [Stdlib.compare] on the solve
   and bench paths is both slow (megamorphic dispatch per comparison) and a
   latent correctness hazard — it ranks blocks by size before contents, which
   silently disagrees with the typed comparators (see Label_set.compare).
   The sweep that removed it is enforced here so it cannot creep back: the
   trees under lib/ and bench/ must contain no occurrence of the token. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec ml_sources dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then ml_sources path
         else if Filename.check_suffix entry ".ml" then [ path ]
         else [])

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let check_tree_free_of ~needle dir =
  let sources = ml_sources dir in
  Alcotest.(check bool)
    (Printf.sprintf "%s has .ml sources to lint" dir)
    true
    (List.length sources > 0);
  List.iter
    (fun path ->
      if contains ~needle (read_file path) then
        Alcotest.failf "%s occurs in %s — use a typed comparator" needle path)
    sources

(* dune runs the test binary from _build/default/test; the (deps
   (source_tree ...)) clauses in test/dune stage the sources next to it. *)
let test_no_polymorphic_compare () =
  List.iter
    (check_tree_free_of ~needle:"Stdlib.compare")
    [ Filename.concat ".." "lib"; Filename.concat ".." "bench" ]

(* The off-heap window path is the steady-state hot loop of every
   streaming solver: one boxed option per push or per solve round would
   re-introduce exactly the GC pressure the Flat/Window_index layer
   exists to remove. Keep those files option-free, and the int set every
   admitted post passes through: sentinel values (-1 positions,
   neg_infinity reaches, min_int free slots) carry the absent cases. *)
let window_path_sources =
  [
    Filename.concat ".." (Filename.concat "lib" (Filename.concat "util" "flat.ml"));
    Filename.concat ".." (Filename.concat "lib" (Filename.concat "util" "int_set.ml"));
    Filename.concat ".." (Filename.concat "lib" (Filename.concat "mqdp" "window_index.ml"));
  ]

let test_window_path_option_free () =
  List.iter
    (fun path ->
      let src = read_file path in
      Alcotest.(check bool)
        (Printf.sprintf "%s is staged for linting" path)
        true
        (String.length src > 0);
      List.iter
        (fun needle ->
          if contains ~needle src then
            Alcotest.failf "%s occurs in %s — use a sentinel, not a boxed option" needle
              path)
        [ "Option."; "Some "; "None" ])
    window_path_sources

(* The daemon answers QUERY on the live window in place, through
   Supervisor.solve_window; copying the window out per query was its
   largest allocation. Only the window itself and the solve layers whose fallback
   rungs need an instance may name the copy, so it cannot creep back into
   the serving path unnoticed. *)
let to_instance_allowed = [ "window_index.ml"; "solver.ml"; "supervisor.ml" ]

let test_to_instance_confined () =
  let lib = Filename.concat ".." "lib" in
  let sources = ml_sources lib in
  Alcotest.(check bool) "serve.ml is staged for linting" true
    (List.exists (fun p -> Filename.basename p = "serve.ml") sources);
  List.iter
    (fun path ->
      if
        (not (List.mem (Filename.basename path) to_instance_allowed))
        && contains ~needle:"to_instance" (read_file path)
      then
        Alcotest.failf "to_instance occurs in %s — solve the window in place" path)
    sources

let suite =
  [
    Alcotest.test_case "no Stdlib.compare under lib/ and bench/" `Quick
      test_no_polymorphic_compare;
    Alcotest.test_case "window path stays option-free" `Quick
      test_window_path_option_free;
    Alcotest.test_case "to_instance stays out of the serving path" `Quick
      test_to_instance_confined;
  ]
