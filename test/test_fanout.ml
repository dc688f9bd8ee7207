(* FEED fan-out: delivery order and shedding against a model of the
   filter-and-sort algorithm, the allocation bound of one delivery, and
   the Printf-free FEED/TICK acks against sprintf. *)

let serve_config ~queue_capacity =
  { Mqdp.Serve.default_config with Mqdp.Serve.shards = 2; seq_cache = 4; queue_capacity }

(* --- Model ------------------------------------------------------------

   The daemon's fan-out as a plain filter-and-sort over its own shards:
   every label's entries are filtered on aliveness (physical equality
   with the name table's entry) on each FEED, the matches are
   deduplicated by stamp and sorted by name, and each match is offered
   the post projected onto its subscription. *)

type m_entry = { m_name : string; m_shard : int; mutable m_stamp : int }

type model = {
  m_shards : Mqdp.Shard.t array;
  m_names : (string, m_entry) Hashtbl.t;
  m_by_label : (int, m_entry list ref) Hashtbl.t;
  mutable m_clock : int;
  m_config : Mqdp.Serve.config;
}

let model config =
  {
    m_shards =
      Array.init config.Mqdp.Serve.shards (fun _ ->
          Mqdp.Shard.create
            { Mqdp.Shard.queue_capacity = config.Mqdp.Serve.queue_capacity; tick_steps = None });
    m_names = Hashtbl.create 16;
    m_by_label = Hashtbl.create 16;
    m_clock = 0;
    m_config = config;
  }

let m_alive m e =
  match Hashtbl.find_opt m.m_names e.m_name with Some e' -> e' == e | None -> false

let m_index m e subscription =
  Hashtbl.replace m.m_names e.m_name e;
  Mqdp.Label_set.iter
    (fun a ->
      match Hashtbl.find_opt m.m_by_label a with
      | Some r -> r := e :: !r
      | None -> Hashtbl.add m.m_by_label a (ref [ e ]))
    subscription

let m_add m ~name ~mode ~window ~subscription =
  let c = m.m_config in
  let config =
    {
      Mqdp.Profile.lambda = 3.;
      mode;
      feed = { Mqdp.Feed.default_config with overload_budget = c.Mqdp.Serve.overload_budget };
      window;
      checkpoint_every = c.Mqdp.Serve.checkpoint_every;
      max_restarts = c.Mqdp.Serve.max_restarts;
    }
  in
  let shard = Mqdp.Serve.shard_of_name ~shards:c.Mqdp.Serve.shards name in
  Mqdp.Shard.add m.m_shards.(shard) (Mqdp.Profile.create ~name ~subscription config);
  m_index m { m_name = name; m_shard = shard; m_stamp = 0 } subscription

let m_feed m seq (post : Mqdp.Post.t) =
  m.m_clock <- m.m_clock + 1;
  let matches = ref [] in
  Mqdp.Label_set.iter
    (fun a ->
      match Hashtbl.find_opt m.m_by_label a with
      | None -> ()
      | Some r ->
        r := List.filter (m_alive m) !r;
        List.iter
          (fun e ->
            if e.m_stamp <> m.m_clock then begin
              e.m_stamp <- m.m_clock;
              matches := e :: !matches
            end)
          !r)
    post.Mqdp.Post.labels;
  let delivered = ref 0 and shed = ref 0 in
  List.iter
    (fun e ->
      match Mqdp.Shard.find m.m_shards.(e.m_shard) e.m_name with
      | None -> ()
      | Some profile ->
        let projected =
          Mqdp.Label_set.inter post.Mqdp.Post.labels (Mqdp.Profile.subscription profile)
        in
        if not (Mqdp.Label_set.is_empty projected) then
          if
            Mqdp.Shard.offer m.m_shards.(e.m_shard) profile
              (Mqdp.Post.make ~id:post.Mqdp.Post.id ~value:post.Mqdp.Post.value ~labels:projected)
          then incr delivered
          else incr shed)
    (List.sort (fun a b -> String.compare a.m_name b.m_name) !matches);
  Printf.sprintf "%d OK delivered=%d shed=%d" seq !delivered !shed

let m_backlog m = Array.fold_left (fun n s -> n + Mqdp.Shard.backlog s) 0 m.m_shards

let m_tick m seq =
  let applied = Array.fold_left (fun n s -> n + Mqdp.Shard.tick s) 0 m.m_shards in
  Printf.sprintf "%d OK applied=%d backlog=%d" seq applied (m_backlog m)

let m_report m seq name =
  match Hashtbl.find_opt m.m_names name with
  | None -> [ Printf.sprintf "%d ERR unknown-profile no such profile %S" seq name ]
  | Some e ->
    let profile = Option.get (Mqdp.Shard.find m.m_shards.(e.m_shard) name) in
    let emissions = Mqdp.Profile.take_report profile in
    List.map
      (fun (eseq, em) ->
        let b = Buffer.create 16 in
        Util.Fs.add_float_bits b em.Mqdp.Online.emit_time;
        Printf.sprintf "%d EMIT %d %d %s" seq eseq em.Mqdp.Online.post.Mqdp.Post.id
          (Buffer.contents b))
      emissions
    @ [ Printf.sprintf "%d OK %d" seq (List.length emissions) ]

let m_load m i snap =
  let stale =
    Hashtbl.fold (fun name e acc -> if e.m_shard = i then name :: acc else acc) m.m_names []
  in
  List.iter (Hashtbl.remove m.m_names) stale;
  let shard = Mqdp.Shard.restore snap in
  m.m_shards.(i) <- shard;
  List.iter
    (fun p ->
      m_index m
        { m_name = Mqdp.Profile.name p; m_shard = i; m_stamp = 0 }
        (Mqdp.Profile.subscription p))
    (Mqdp.Shard.profiles shard)

(* --- Fan-out order and shedding ---------------------------------------- *)

type op =
  | Add of int * int list * bool  (* name, subscription, instant *)
  | Del of int
  | Feed of int list
  | Tick
  | Report of int
  | Restart of int
  | Snap of int
  | Load of int

let name_of i = Printf.sprintf "p%d" i

let show_op = function
  | Add (n, ls, instant) ->
    Printf.sprintf "ADD %s %s %s" (name_of n) (if instant then "instant" else "delayed:2")
      (String.concat "," (List.map string_of_int ls))
  | Del n -> "DEL " ^ name_of n
  | Feed ls -> "FEED " ^ String.concat "," (List.map string_of_int ls)
  | Tick -> "TICK"
  | Report n -> "REPORT " ^ name_of n
  | Restart i -> Printf.sprintf "restart_shard %d" i
  | Snap i -> Printf.sprintf "shard_snapshot %d" i
  | Load i -> Printf.sprintf "load_shard %d" i

let gen_op_with ~name ~labels =
  let open QCheck.Gen in
  frequency
    [
      (4, map3 (fun n ls instant -> Add (n, ls, instant)) name labels bool);
      (2, map (fun n -> Del n) name);
      (8, map (fun ls -> Feed ls) labels);
      (2, return Tick);
      (2, map (fun n -> Report n) name);
      (1, map (fun i -> Restart i) (int_range 0 1));
      (1, map (fun i -> Snap i) (int_range 0 1));
      (1, map (fun i -> Load i) (int_range 0 1));
    ]

let arb_script gen_op =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "queue_capacity=%d\n%s" cap (String.concat "\n" (List.map show_op ops)))
    QCheck.Gen.(pair (int_range 1 4) (list_size (int_range 1 80) gen_op))

(* Eight names, labels 0-5: every label set fits one word. *)
let narrow_ops =
  QCheck.Gen.(gen_op_with ~name:(int_range 0 7) ~labels:(list_size (int_range 1 3) (int_range 0 5)))

(* Twelve names, up to five labels drawn from 0-5 and 60-66, so label
   sets straddle the 62-label word boundary and a post can be cut more
   ways than the fan-out shares. *)
let wide_ops =
  QCheck.Gen.(
    gen_op_with ~name:(int_range 0 11)
      ~labels:(list_size (int_range 1 5) (oneof [ int_range 0 5; int_range 60 66 ])))

let labels_field ls = String.concat "," (List.map string_of_int ls)

let script_matches_model ~names (queue_capacity, ops) =
  let config = serve_config ~queue_capacity in
  let t = Mqdp.Serve.create config in
  Fun.protect ~finally:(fun () -> Mqdp.Serve.shutdown t) @@ fun () ->
  let m = model config in
  let seq = ref 0 and post_id = ref 0 in
  let snaps = Array.make config.Mqdp.Serve.shards None in
  let exec fmt =
    Printf.ksprintf
      (fun line ->
        incr seq;
        Mqdp.Serve.exec t (Printf.sprintf "%d %s" !seq line))
      fmt
  in
  let expect what expected got =
    if expected <> got then
      QCheck.Test.fail_reportf "%s:\n  model %s\n  serve %s" what
        (String.concat " | " expected) (String.concat " | " got)
  in
  List.iter
    (fun op ->
      match op with
      | Add (n, ls, instant) ->
        let name = name_of n in
        let mode = if instant then "instant" else "delayed:2" in
        let got = exec "ADD %s 3 %s %s nowindow" name mode (labels_field ls) in
        if Hashtbl.mem m.m_names name then
          expect "duplicate ADD"
            [ Printf.sprintf "%d ERR duplicate-profile profile %S already exists" !seq name ]
            got
        else begin
          m_add m ~name
            ~mode:(if instant then Mqdp.Online.Instant else Mqdp.Online.Delayed { tau = 2.; plus = false })
            ~window:false ~subscription:(Mqdp.Label_set.of_list ls);
          expect "ADD" [ Printf.sprintf "%d OK added" !seq ] got
        end
      | Del n ->
        let name = name_of n in
        let got = exec "DEL %s" name in
        (match Hashtbl.find_opt m.m_names name with
        | None -> expect "DEL" [ Printf.sprintf "%d ERR unknown-profile no such profile %S" !seq name ] got
        | Some e ->
          Hashtbl.remove m.m_names name;
          ignore (Mqdp.Shard.remove m.m_shards.(e.m_shard) name);
          expect "DEL" [ Printf.sprintf "%d OK deleted" !seq ] got)
      | Feed ls ->
        incr post_id;
        let got = exec "FEED %d %d %s" !post_id !post_id (labels_field ls) in
        let post =
          Mqdp.Post.make ~id:!post_id ~value:(float_of_int !post_id)
            ~labels:(Mqdp.Label_set.of_list ls)
        in
        expect "FEED" [ m_feed m !seq post ] got
      | Tick ->
        let got = exec "TICK" in
        expect "TICK" [ m_tick m !seq ] got
      | Report n ->
        let got = exec "REPORT %s" (name_of n) in
        expect "REPORT" (m_report m !seq (name_of n)) got
      | Restart i ->
        Mqdp.Serve.restart_shard t i;
        m.m_shards.(i) <- Mqdp.Shard.restore (Mqdp.Shard.snapshot m.m_shards.(i))
      | Snap i ->
        let snap = Mqdp.Serve.shard_snapshot t i in
        expect "shard snapshot" [ Mqdp.Shard.snapshot m.m_shards.(i) ] [ snap ];
        snaps.(i) <- Some snap
      | Load i -> (
        match snaps.(i) with
        | None -> ()
        | Some snap ->
          Mqdp.Serve.load_shard t i snap;
          m_load m i snap))
    ops;
  (* Settle, then every profile's remaining report must agree too. *)
  let got = exec "TICK" in
  expect "final TICK" [ m_tick m !seq ] got;
  for n = 0 to names - 1 do
    let got = exec "REPORT %s" (name_of n) in
    expect "final REPORT" (m_report m !seq (name_of n)) got
  done;
  true

let fanout_matches_model =
  Helpers.qtest ~count:300 "FEED replies and REPORTs match the filter-and-sort model"
    (arb_script narrow_ops) (script_matches_model ~names:8)

let wide_fanout_matches_model =
  Helpers.qtest ~count:300 "FEED on label sets across the word boundary matches the model"
    (arb_script wide_ops) (script_matches_model ~names:12)

(* --- Allocation per delivery ------------------------------------------ *)

(* Minor words one FEED allocates when it reaches [profiles] single-label
   instant profiles, measured once the label's posting is in order and
   every profile has seen a post. *)
let feed_words ~profiles =
  let t = Mqdp.Serve.create Mqdp.Serve.default_config in
  Fun.protect ~finally:(fun () -> Mqdp.Serve.shutdown t) @@ fun () ->
  for i = 1 to profiles do
    ignore (Mqdp.Serve.exec t (Printf.sprintf "%d ADD p%04d 10 instant 0 nowindow" i i))
  done;
  let seq = profiles in
  ignore (Mqdp.Serve.exec t (Printf.sprintf "%d FEED 1 1 0" (seq + 1)));
  ignore (Mqdp.Serve.exec t (Printf.sprintf "%d TICK" (seq + 2)));
  let line = Printf.sprintf "%d FEED 2 2 0" (seq + 3) in
  let before = Gc.minor_words () in
  let reply = Mqdp.Serve.exec t line in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (list string))
    (Printf.sprintf "%d deliveries" profiles)
    [ Printf.sprintf "%d OK delivered=%d shed=0" (seq + 3) profiles ]
    reply;
  words

(* A delivery writes the post into its profile's post log and allocates
   nothing else: no per-FEED sort or filter of the matches, no projected
   copy of a post the subscription already covers, no option per lookup.
   The slope measures 0 words; the bound leaves one word of margin. *)
let test_delivery_allocation_bound () =
  let w50 = feed_words ~profiles:50 and w200 = feed_words ~profiles:200 in
  let slope = (w200 -. w50) /. 150. in
  if slope > 1. then
    Alcotest.failf "FEED allocates %.1f minor words per extra delivery (50: %.0f, 200: %.0f)"
      slope w50 w200

(* Minor words that a warm FEED on labels {0,1}, a FEED on {2} and the
   TICK that applies both allocate together, on [profiles] windowless
   instant profiles subscribed alternately to {0,2} and {1,3} with
   lambda 1000. The {0,1} post reaches every profile cut to one of its
   labels, so half the profiles share one projection and half the
   other; the {2} post reaches the even profiles, whose subscriptions
   hold it whole. Each profile's reorder buffer holds 64 posts, so the
   engine sees a post 64 posts after it is offered; by the measured
   round every profile has emitted its first post per label, and the
   posts the TICK releases are covered. *)
let covered_words ~profiles =
  let t = Mqdp.Serve.create Mqdp.Serve.default_config in
  Fun.protect ~finally:(fun () -> Mqdp.Serve.shutdown t) @@ fun () ->
  let seq = ref 0 in
  let line fmt =
    incr seq;
    Printf.ksprintf (Printf.sprintf "%d %s" !seq) fmt
  in
  let exec fmt = Printf.ksprintf (fun l -> Mqdp.Serve.exec t (line "%s" l)) fmt in
  for i = 1 to profiles do
    ignore (exec "ADD p%04d 1000 instant %s nowindow" i (if i mod 2 = 0 then "0,2" else "1,3"))
  done;
  (* Round [r]'s lines, built before they are measured. *)
  let round r =
    let a = line "FEED %d %d 0,1" (2 * r) r in
    let b = line "FEED %d %d.5 2" ((2 * r) + 1) r in
    (a, b, line "TICK")
  in
  let run (a, b, c) = List.map (Mqdp.Serve.exec t) [ a; b; c ] in
  (* No table doubles and no profile checkpoints in round 81. An even
     profile admits its 161st and 162nd ids into a dedup set of 256
     slots (it doubles at its 193rd) and checkpoints every 32 rounds; an
     odd profile admits its 81st id into 128 slots (doubles at its 97th)
     and checkpoints every 64. The reorder rings hold 128 posts, and the
     post logs have reached the size they slide within. *)
  for r = 1 to 80 do
    ignore (run (round r))
  done;
  let lines = round 81 in
  let before = Gc.minor_words () in
  let replies = run lines in
  let words = Gc.minor_words () -. before in
  (* each reply is one line; drop its sequence number *)
  let unseq = function
    | [ l ] -> String.sub l (String.index l ' ') (String.length l - String.index l ' ')
    | _ -> "several lines"
  in
  Alcotest.(check (list string))
    (Printf.sprintf "%d profiles" profiles)
    [
      Printf.sprintf " OK delivered=%d shed=0" profiles;
      Printf.sprintf " OK delivered=%d shed=0" (profiles / 2);
      Printf.sprintf " OK applied=%d backlog=0" (profiles * 3 / 2);
    ]
    (List.map unseq replies);
  (* The engine emitted once per label and covered everything after. *)
  let emitted name = unseq [ List.hd (List.rev (exec "REPORT %s" name)) ] in
  let odd = emitted "p0001" in
  let even = emitted "p0002" in
  Alcotest.(check (list string)) "first posts emitted, later ones covered" [ " OK 1"; " OK 2" ]
    [ odd; even ];
  words

let test_covered_delivery_allocates_nothing () =
  let w50 = covered_words ~profiles:50 and w200 = covered_words ~profiles:200 in
  let slope = (w200 -. w50) /. 225. in
  if slope > 0. then
    Alcotest.failf
      "a covered delivery allocates %.2f minor words from FEED through TICK (50: %.0f, 200: %.0f)"
      slope w50 w200

(* --- Printf-free acks --------------------------------------------------- *)

(* FEED and TICK acks are written digit by digit; they must read exactly
   as sprintf writes them, for any sequence number and counts. The counts
   come from the engine's own backlog accessor. *)
let acks_match_sprintf =
  Helpers.qtest ~count:100 "FEED and TICK acks = sprintf"
    QCheck.(
      quad (int_range 0 12) (int_range 1 8) (int_range 1 6)
        (pair (int_range 1 (max_int / 2)) (int_range 1 1000)))
    (fun (k, queue_capacity, steps, (seq, gap)) ->
      let config =
        {
          Mqdp.Serve.default_config with
          Mqdp.Serve.shards = 1;
          queue_capacity;
          tick_steps = Some steps;
        }
      in
      let t = Mqdp.Serve.create config in
      Fun.protect ~finally:(fun () -> Mqdp.Serve.shutdown t) @@ fun () ->
      for i = 1 to k do
        ignore (Mqdp.Serve.exec t (Printf.sprintf "%d ADD p%d 10 instant 0 nowindow" i i))
      done;
      let seq = seq + k in
      let feed = Mqdp.Serve.exec t (Printf.sprintf "%d FEED 1 1 0" seq) in
      let delivered = Mqdp.Serve.backlog t in
      let tick = Mqdp.Serve.exec t (Printf.sprintf "%d TICK" (seq + gap)) in
      let backlog = Mqdp.Serve.backlog t in
      feed = [ Printf.sprintf "%d OK delivered=%d shed=%d" seq delivered (k - delivered) ]
      && tick
         = [ Printf.sprintf "%d OK applied=%d backlog=%d" (seq + gap) (delivered - backlog) backlog ])

let suite =
  [
    fanout_matches_model;
    Alcotest.test_case "a delivery allocates at most 1 minor word" `Quick
      test_delivery_allocation_bound;
    acks_match_sprintf;
    Alcotest.test_case "a covered delivery allocates nothing, FEED through TICK" `Quick
      test_covered_delivery_allocates_nothing;
    wide_fanout_matches_model;
  ]
