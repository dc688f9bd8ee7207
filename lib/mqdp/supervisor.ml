module Breaker = struct
  type entry = { mutable failures : int; mutable opened_at : float }

  (* All state sits behind [lock]: one breaker is shared by every domain
     that supervises the same resource (a serve shard migrates across
     pool workers between ticks), so lookups and transitions must be
     atomic with respect to each other. The critical sections are a few
     loads and stores — contention is irrelevant next to the solves the
     breaker is guarding. *)
  type t = {
    threshold : int;
    cooldown : float;
    entries : (string, entry) Hashtbl.t;
    lock : Mutex.t;
  }

  let create ?(threshold = 3) ?(cooldown = 30.) () =
    if threshold < 1 then invalid_arg "Supervisor.Breaker.create: threshold < 1";
    if cooldown < 0. then invalid_arg "Supervisor.Breaker.create: cooldown < 0";
    { threshold; cooldown; entries = Hashtbl.create 8; lock = Mutex.create () }

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let entry t rung =
    match Hashtbl.find_opt t.entries rung with
    | Some e -> e
    | None ->
      let e = { failures = 0; opened_at = 0. } in
      Hashtbl.add t.entries rung e;
      e

  let failures t rung =
    locked t (fun () ->
        match Hashtbl.find_opt t.entries rung with
        | Some e -> e.failures
        | None -> 0)

  let available t rung =
    locked t (fun () ->
        match Hashtbl.find_opt t.entries rung with
        | None -> true
        | Some e ->
          e.failures < t.threshold
          || Util.Timer.now () -. e.opened_at >= t.cooldown)

  (* Rungs currently tripped (at/above the failure threshold), exposed as
     a gauge. Cooldown expiry is not reflected until the next record — the
     gauge tracks state transitions, not the clock. *)
  let m_open = Util.Telemetry.gauge "supervisor.breaker_open"

  let update_open_gauge t =
    if Util.Telemetry.enabled () then
      Util.Telemetry.set m_open
        (Hashtbl.fold
           (fun _ e acc -> if e.failures >= t.threshold then acc + 1 else acc)
           t.entries 0)

  let record_success t rung =
    locked t (fun () ->
        (entry t rung).failures <- 0;
        update_open_gauge t)

  (* (Re)arming the cooldown on every failure at or past the threshold
     means a failed half-open trial closes the window again. *)
  let record_failure t rung =
    locked t (fun () ->
        let e = entry t rung in
        e.failures <- e.failures + 1;
        if e.failures >= t.threshold then e.opened_at <- Util.Timer.now ();
        update_open_gauge t)
end

type outcome =
  | Answered
  | Salvaged of Util.Budget.stop_reason
  | Exhausted of Util.Budget.stop_reason
  | Refused of string
  | Skipped_breaker

type attempt = {
  rung : string;
  outcome : outcome;
  seeded_with : int;
  rung_elapsed : float;
}

type report = {
  answered_by : string;
  cover : int list;
  size : int;
  attempts : attempt list;
  total_elapsed : float;
}

let outcome_to_string = function
  | Answered -> "answered"
  | Salvaged r -> Printf.sprintf "salvaged (%s)" (Util.Budget.reason_to_string r)
  | Exhausted r -> Printf.sprintf "exhausted (%s)" (Util.Budget.reason_to_string r)
  | Refused msg -> "refused: " ^ msg
  | Skipped_breaker -> "skipped (circuit open)"

let describe report =
  let line a =
    Printf.sprintf "%-12s %-24s seed=%-4d %8.3fms" a.rung
      (outcome_to_string a.outcome)
      a.seeded_with
      (a.rung_elapsed *. 1e3)
  in
  String.concat "\n" (List.map line report.attempts)

let default_ladder = [ Solver.Opt; Solver.Greedy_sc; Solver.Scan_plus ]

let ladder_from algorithm =
  let rec suffix = function
    | [] -> [ algorithm ]
    | a :: _ as l when a = algorithm -> l
    | _ :: rest -> suffix rest
  in
  suffix default_ladder

(* The floor never fails: under a fixed λ the instant streaming pick is a
   valid cover computed in one pass; under a per-post λ the identity cover
   is valid because every pair is covered by its own post. *)
let instant_cover instance lambda =
  match lambda with
  | Coverage.Fixed _ -> (Stream_scan.solve_instant instance lambda).Stream.cover
  | Coverage.Per_post_label _ -> List.init (Instance.size instance) Fun.id

let union a b = List.sort_uniq Int.compare (List.rev_append a b)

let outcome_counter =
  let answered = Util.Telemetry.counter "supervisor.answered"
  and salvaged = Util.Telemetry.counter "supervisor.salvaged"
  and exhausted = Util.Telemetry.counter "supervisor.exhausted"
  and refused = Util.Telemetry.counter "supervisor.refused"
  and skipped = Util.Telemetry.counter "supervisor.skipped_breaker" in
  function
  | Answered -> answered
  | Salvaged _ -> salvaged
  | Exhausted _ -> exhausted
  | Refused _ -> refused
  | Skipped_breaker -> skipped

(* What the ladder needs from the thing it solves: run one rung (seeded
   with the positions salvaged so far), judge a candidate cover, and
   produce the unguarded floor. [solve] builds one over an instance,
   [solve_window] over a live window; the walk itself is shared. *)
type problem = {
  run : budget:Util.Budget.t -> seed:int list -> Solver.algorithm -> int list;
  valid : int list -> bool;
  floor : unit -> int list;
}

let walk ?(budget = Util.Budget.unlimited) ?breaker ?(ladder = default_ladder) problem =
  let start = Util.Timer.now_ns () in
  let attempts = ref [] in
  let record rung outcome seeded_with rung_elapsed =
    Util.Telemetry.incr (outcome_counter outcome);
    attempts := { rung; outcome; seeded_with; rung_elapsed } :: !attempts
  in
  let allowed rung =
    match breaker with None -> true | Some b -> Breaker.available b rung
  in
  let note_success rung =
    Option.iter (fun b -> Breaker.record_success b rung) breaker
  in
  let note_failure rung =
    Option.iter (fun b -> Breaker.record_failure b rung) breaker
  in
  let finish answered_by cover =
    {
      answered_by;
      cover;
      size = List.length cover;
      attempts = List.rev !attempts;
      total_elapsed = Util.Timer.elapsed_since start;
    }
  in
  let rec walk seed = function
    | [] ->
      let t0 = Util.Timer.now_ns () in
      let cover = union seed (problem.floor ()) in
      record "instant" Answered (List.length seed) (Util.Timer.elapsed_since t0);
      finish "instant" cover
    | algorithm :: rest ->
      let rung = Solver.algorithm_name algorithm in
      let seeded = List.length seed in
      if not (allowed rung) then begin
        record rung Skipped_breaker seeded 0.;
        walk seed rest
      end
      else begin
        (* Non-final rungs run on half the remaining budget so an expensive
           rung that burns out cannot starve its fallbacks; the ladder's
           last rung gets everything left (the instant floor underneath is
           unguarded anyway). *)
        let rung_budget =
          if rest = [] then budget else Util.Budget.child ~fraction:0.5 budget
        in
        let t0 = Util.Timer.now_ns () in
        (* The span re-raises after closing, so the exception patterns
           below still see Budget_exceeded & friends; the budget spend is
           attached at span close, after the rung has run. *)
        let run_rung () =
          Util.Telemetry.span
            ~name:("supervisor.rung." ^ rung)
            ~args:(fun () -> Util.Budget.spend_attrs rung_budget)
            (fun () -> problem.run ~budget:rung_budget ~seed algorithm)
        in
        match run_rung () with
        | cover when problem.valid cover ->
          record rung Answered seeded (Util.Timer.elapsed_since t0);
          note_success rung;
          finish rung cover
        | _invalid ->
          (* Unreachable for a correct solver; degrade rather than crash. *)
          record rung (Refused "returned an invalid cover") seeded
            (Util.Timer.elapsed_since t0);
          note_failure rung;
          walk seed rest
        | exception Interrupt.Budget_exceeded { reason; partial } ->
          let dt = Util.Timer.elapsed_since t0 in
          let salvage = union seed (Interrupt.positions_of partial) in
          if problem.valid salvage then begin
            (* The salvage is already a complete cover (e.g. a
               branch-and-bound incumbent): answer with it. Still a breaker
               failure — the rung did not finish inside its budget. *)
            record rung (Salvaged reason) seeded dt;
            note_failure rung;
            finish rung salvage
          end
          else begin
            record rung (Exhausted reason) seeded dt;
            note_failure rung;
            walk salvage rest
          end
        | exception Opt.Infeasible { labels; bytes } ->
          record rung
            (Refused
               (Printf.sprintf "infeasible: %d labels imply a %.3g-byte DP table"
                  labels bytes))
            seeded
            (Util.Timer.elapsed_since t0);
          note_failure rung;
          walk seed rest
        | exception
            ( Opt.Unsupported msg | Opt.Too_large msg
            | Brute_force.Too_large msg | Set_cover.Too_large msg ) ->
          record rung (Refused msg) seeded (Util.Timer.elapsed_since t0);
          note_failure rung;
          walk seed rest
      end
  in
  walk [] ladder

let solve ?pool ?budget ?breaker ?ladder instance lambda =
  walk ?budget ?breaker ?ladder
    {
      run =
        (fun ~budget ~seed algorithm ->
          Solver.run ?pool ~budget ~seed algorithm instance lambda);
      valid = Coverage.is_cover instance lambda;
      floor = (fun () -> instant_cover instance lambda);
    }

let solve_window ?budget ?breaker ?ladder ?solver window =
  let lambda = Window_index.lambda window in
  (* The GreedySC rungs read the window in place; every other rung and
     the floor share one materialized copy, built on first use. *)
  let instance = lazy (Window_index.to_instance window) in
  let materialize _ = Lazy.force instance in
  walk ?budget ?breaker ?ladder
    {
      run =
        (fun ~budget ~seed algorithm ->
          (Solver.solve_window ~budget ?solver ~seed ~materialize algorithm window)
            .Solver.cover);
      valid = Window_index.is_cover window;
      floor = (fun () -> instant_cover (materialize window) lambda);
    }
