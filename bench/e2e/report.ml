(* The result line the benchmark prints last, and the file --repeat
   writes: every run's result line tagged with its workload and seed. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let to_json t =
  Json.Obj
    [
      ("correct", Json.Bool t.correct);
      ("attempted", Json.Num (float_of_int t.attempted));
      ("failed", Json.Num (float_of_int t.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
             t.metrics) );
    ]

let of_json j =
  {
    correct = Json.to_bool (Json.field "correct" j);
    attempted = Json.to_int (Json.field "attempted" j);
    failed = Json.to_int (Json.field "failed" j);
    metrics =
      List.map
        (fun (name, v) ->
          {
            name;
            value = Json.to_float (Json.field "value" v);
            unit_ = Json.to_str (Json.field "unit" v);
          })
        (Json.to_assoc (Json.field "metrics" j));
  }

let to_line t = Json.to_string (to_json t)

type run = { workload : string; seed : int; result : t }

let runs_to_json runs =
  Json.Obj
    [
      ( "runs",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("workload", Json.Str r.workload);
                   ("seed", Json.Num (float_of_int r.seed));
                   ("result", to_json r.result);
                 ])
             runs) );
    ]

let runs_of_json j =
  List.map
    (fun r ->
      {
        workload = Json.to_str (Json.field "workload" r);
        seed = Json.to_int (Json.field "seed" r);
        result = of_json (Json.field "result" r);
      })
    (Json.to_list (Json.field "runs" j))

(* The values of one metric on one workload, in run order. *)
let series runs ~workload ~metric =
  List.filter_map
    (fun r ->
      if String.equal r.workload workload then
        List.find_map
          (fun m -> if String.equal m.name metric then Some m.value else None)
          r.result.metrics
      else None)
    runs
  |> Array.of_list
