(* One run of one workload: set the daemon up (several times, for a
   steady set-up time), drive the open-loop and capacity phases over
   loopback, verify, stop the daemon, replay the script in-process, and
   check the two against each other. *)

module W = Workload
module L = Loadgen

let now = L.now
let setups = 15

(* Idle time after each set-up but the last. The host's speed changes in
   episodes of a fraction of a second to a few seconds. Back to back, the
   fifteen set-ups of a non-durable workload take under a second and
   often fall in one episode. Spaced over about four seconds they sample
   several: in interleaved trials of twenty runs each, the run-to-run
   spread of the median fell from 36-51% to 12-24% on fanout and from
   23% to 13% on pingpong. A 0.6 s gap did no better. *)
let setup_gap = 0.25

type loopback = {
  lg : L.t;
  setup_times : float array;
  open_start : float;
  rss_mib : float;
  cpu_s : float;  (** daemon CPU seconds over the open and capacity phases *)
  steal_s : float;  (** CPU seconds the hypervisor stole meanwhile *)
}

(* One PING on a throwaway anonymous connection: the daemon is serving. *)
let ping fd =
  let msg = "1 PING\n" in
  ignore (Unix.write_substring fd msg 0 (String.length msg));
  let b = Bytes.create 64 and got = Buffer.create 16 in
  while not (String.contains (Buffer.contents got) '\n') do
    match Unix.read fd b 0 (Bytes.length b) with
    | 0 -> Daemon.failf "connection closed before PING was answered"
    | n -> Buffer.add_subbytes got b 0 n
  done;
  if not (String.starts_with ~prefix:"1 OK pong" (Buffer.contents got)) then
    Daemon.failf "unexpected PING reply %S" (Buffer.contents got)

let reqs (w : W.t) phase = W.phase_reqs w phase

(* Durable set-up: build a state dir untimed (profiles checkpointed, then
   2000 journaled FEEDs, then SIGKILL), then time boots from copies of it
   until the first PING is answered. The last boot stays up. *)
let durable_setup (w : W.t) lg ~dir ~log ~boots =
  let base = Filename.concat dir "state" in
  Daemon.ensure_dir base;
  let d = Daemon.spawn ~log ~state_dir:base () in
  let fd = Daemon.connect d in
  L.hello fd "ingest";
  L.attach lg [| fd |];
  L.closed_loop lg (reqs w Setup @ reqs w Prebuild);
  L.collect lg;
  L.close lg;
  Daemon.kill_now d;
  let times = Array.make boots 0. in
  let boot k =
    let sd = Filename.concat dir (Printf.sprintf "boot-%d" k) in
    Daemon.copy_tree base sd;
    Gc.full_major ();
    let t0 = now () in
    let d = Daemon.spawn ~log ~state_dir:sd () in
    let fd = Daemon.connect d in
    ping fd;
    times.(k) <- now () -. t0;
    Unix.close fd;
    d
  in
  for k = 0 to boots - 2 do
    Daemon.kill_now (boot k);
    Unix.sleepf setup_gap
  done;
  let d = boot (boots - 1) in
  let ingest = Daemon.connect d and reader = Daemon.connect d in
  L.hello ingest "ingest";
  L.hello reader "reader";
  L.attach lg [| ingest; reader |];
  (d, times, None)

(* Set-up: spawn until every ADD is acknowledged. *)
let plain_setup (w : W.t) lg ~log ~boots =
  let times = Array.make boots 0. in
  let once k =
    Gc.full_major ();
    let t0 = now () in
    let d = Daemon.spawn ~log () in
    let fd = Daemon.connect d in
    let client =
      if w.spec.pingpong then begin
        Unix.close fd;
        let c = L.client ~port:d.Daemon.port in
        L.pingpong lg c (reqs w Setup);
        Some c
      end
      else begin
        L.attach lg [| fd; Daemon.connect d |];
        L.closed_loop lg (reqs w Setup);
        None
      end
    in
    times.(k) <- now () -. t0;
    (d, client)
  in
  for k = 0 to boots - 2 do
    let d, client = once k in
    Option.iter L.close_client client;
    L.close lg;
    Daemon.kill_now d;
    Unix.sleepf setup_gap
  done;
  let d, client = once (boots - 1) in
  (d, times, client)

let loopback (w : W.t) ~boots ~record =
  let dir = Daemon.scratch_dir w.spec.name in
  let log = Filename.concat dir "daemon.log" in
  let lg = L.create ~record w in
  let d, setup_times, client =
    if w.spec.durable then durable_setup w lg ~dir ~log ~boots
    else plain_setup w lg ~log ~boots
  in
  Gc.full_major ();
  let cpu0 = Daemon.cpu_seconds d and steal0 = Daemon.steal_seconds () in
  let open_start =
    match client with
    | Some c ->
      let start = now () +. 0.01 in
      L.pingpong lg c ~start (reqs w Open);
      L.pingpong lg c (reqs w Capacity);
      start
    | None ->
      let start = L.open_loop lg (reqs w Open) in
      L.closed_loop lg (reqs w Capacity);
      start
  in
  let cpu_s = Daemon.cpu_seconds d -. cpu0 and steal_s = Daemon.steal_seconds () -. steal0 in
  (match client with
  | Some c ->
    L.pingpong lg c (reqs w Verify);
    L.close_client c
  | None -> L.closed_loop lg (reqs w Verify));
  let rss_mib = Daemon.peak_rss_mib d in
  L.collect lg;
  L.close lg;
  Daemon.stop d;
  { lg; setup_times; open_start; rss_mib; cpu_s; steal_s }

(* {2 Checks} *)

let final_line = function
  | [] -> None
  | lines -> Some (List.nth lines (List.length lines - 1))

let is_err line =
  match String.split_on_char ' ' line with _ :: "ERR" :: _ -> true | _ -> false

let int_after ~key line =
  String.split_on_char ' ' line
  |> List.find_map (fun tok ->
         if String.starts_with ~prefix:key tok then
           int_of_string_opt (String.sub tok (String.length key) (String.length tok - String.length key))
         else None)

type verdict = {
  problems : string list;
  failed : int;
  attempted : int;
  delivered : int;  (** sum of FEED replies' delivered= *)
}

(* Only the ingest connection's ADD/FEED/TICK/CHECKPOINT/DRAIN replies
   are independent of how the two connections interleave; those must
   match the reference byte for byte. REPORTs are compared as per-profile
   EMIT unions, which every interleaving drains in full. *)
let check (w : W.t) (lb : loopback) (reference : Inproc.t) =
  let problems = ref [] in
  let say fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let got = lb.lg.L.responses and want = reference.Inproc.responses in
  let unanswered = ref 0 and errs = ref 0 and shed = ref 0 and mismatched = ref 0 in
  let delivered = ref 0 in
  let emits_got = Emits.create () and emits_want = Emits.create () in
  Array.iter
    (fun (r : W.req) ->
      let i = r.index in
      (match final_line got.(i) with
      | None -> incr unanswered
      | Some l -> if is_err l then incr errs);
      match r.kind with
      | W.Add _ | W.Feed _ | W.Tick | W.Checkpoint | W.Drain ->
        if not (List.equal String.equal got.(i) want.(i)) then incr mismatched;
        (match (r.kind, final_line got.(i)) with
        | W.Feed _, Some l ->
          delivered := !delivered + Option.value ~default:0 (int_after ~key:"delivered=" l);
          if Option.value ~default:0 (int_after ~key:"shed=" l) > 0 then incr shed
        | _ -> ())
      | W.Report p ->
        let profile = w.profiles.(p).W.name in
        Emits.add_response emits_got ~profile got.(i);
        Emits.add_response emits_want ~profile want.(i)
      | W.Query _ ->
        List.iter
          (fun (side, lines) ->
            match final_line lines with
            | Some l when String.length l > 0 && (
                match String.split_on_char ' ' l with
                | _ :: "OK" :: rung :: _ -> String.starts_with ~prefix:"rung=" rung
                | _ -> false) -> ()
            | _ -> say "QUERY %d (%s) lacks OK rung=" r.seq side)
          [ ("loopback", got.(i)); ("reference", want.(i)) ]
      | W.Stats -> (
        match final_line got.(i) with
        | Some l -> (
          match String.index_opt l '{' with
          | Some j -> (
            match Json.of_string (String.sub l j (String.length l - j)) with
            | json ->
              let backlog = Json.to_int (Json.field "backlog" json) in
              if backlog <> 0 then say "STATS backlog=%d after the final DRAIN" backlog
            | exception Json.Parse_error e -> say "STATS reply is not JSON: %s" e)
          | None -> say "STATS reply has no JSON: %S" l)
        | None -> ()))
    w.script;
  if !unanswered > 0 then say "%d requests unanswered" !unanswered;
  if !errs > 0 then say "%d ERR replies" !errs;
  if lb.lg.L.gave_up > 0 then say "%d client give-ups" lb.lg.L.gave_up;
  if !shed > 0 then say "%d FEEDs shed posts" !shed;
  if !mismatched > 0 then
    say "%d ingest replies differ from the in-process reference" !mismatched;
  (match Emits.diff ~expected:emits_want ~actual:emits_got with
  | [] -> if Emits.count emits_want = 0 then say "no EMIT lines at all"
  | diffs ->
    let p, missing, extra = List.hd diffs in
    say "EMIT sets differ on %d profiles (first: %s, %d missing, %d unexpected)"
      (List.length diffs) p missing extra);
  {
    problems = List.rev !problems;
    failed = !unanswered + !errs + lb.lg.L.gave_up + !shed;
    attempted = Array.length w.script;
    delivered = !delivered;
  }

(* {2 End-to-end metrics} *)

exception Unsupported of string

let pct ~p xs =
  match Sample.percentile ~p xs with Ok v -> v | Error e -> raise (Unsupported e)

let latencies (w : W.t) (lb : loopback) pred =
  let rs = Array.of_list (List.filter pred (reqs w Open)) in
  Sample.from_due ~start:lb.open_start
    ~due:(Array.map (fun (r : W.req) -> r.due) rs)
    ~completed:(Array.map (fun (r : W.req) -> lb.lg.L.done_.(r.index)) rs)

(* How late the generator sent each open-loop request: behind its due
   time, or (one request in flight) behind the previous reply. *)
let lateness (w : W.t) (lb : loopback) =
  let prev_done = ref neg_infinity in
  List.map
    (fun (r : W.req) ->
      let due = lb.open_start +. r.due in
      let ready = if w.spec.pingpong then Float.max due !prev_done else due in
      prev_done := lb.lg.L.done_.(r.index);
      lb.lg.L.sent.(r.index) -. ready)
    (reqs w Open)
  |> Array.of_list

(* Capacity phase: requests completed over the time from the first send
   to the last reply, and the drift between its first and last quarter. *)
let capacity (w : W.t) (lb : loopback) =
  let rs = reqs w Capacity in
  let sent = List.map (fun (r : W.req) -> lb.lg.L.sent.(r.index)) rs in
  let done_ = Array.of_list (List.map (fun (r : W.req) -> lb.lg.L.done_.(r.index)) rs) in
  Array.sort Float.compare done_;
  let n = Array.length done_ in
  let t0 = List.fold_left Float.min infinity sent in
  let q = n / 4 in
  let first = float_of_int q /. (done_.(q - 1) -. t0)
  and last = float_of_int q /. (done_.(n - 1) -. done_.(n - 1 - q)) in
  (float_of_int n /. (done_.(n - 1) -. t0), last /. first, done_.(n - 1) -. t0, n)

let is_read (r : W.req) = match r.kind with W.Report _ | W.Query _ -> true | _ -> false
let is_feed (r : W.req) = match r.kind with W.Feed _ -> true | _ -> false
let is_tick (r : W.req) = match r.kind with W.Tick -> true | _ -> false

let measured_count (w : W.t) = List.length (reqs w Open) + List.length (reqs w Capacity)

let e2e_metrics (lb : loopback) (reference : Inproc.t) =
  [
    ("setup_s", Util.Stats.median lb.setup_times);
    ("server_rss_mb", lb.rss_mib);
    ("alloc_kb_per_req", reference.Inproc.alloc_bytes_per_req /. 1024.);
  ]

(* Spec.loopback: the timings of the loopback run. *)
let loopback_metrics (w : W.t) (lb : loopback) =
  let feed = latencies w lb is_feed and tick = latencies w lb is_tick in
  let read = latencies w lb is_read in
  let rps, _, _, _ = capacity w lb in
  [
    ("throughput_rps", rps);
    ("feed_p50_ms", 1e3 *. pct ~p:50. feed);
    ("tick_p50_ms", 1e3 *. pct ~p:50. tick);
    ("server_cpu_us_per_req", 1e6 *. lb.cpu_s /. float_of_int (measured_count w));
    ("feed_p99_ms", 1e3 *. pct ~p:99. feed);
    ("tick_p90_ms", 1e3 *. pct ~p:90. tick);
    ("read_p50_ms", 1e3 *. pct ~p:50. read);
    ("read_p90_ms", 1e3 *. pct ~p:90. read);
  ]
