(* The no-socket reference: the identical script executed in-process
   through Serve.exec_on, one session per connection, in script order.
   It supplies the expected outputs for the correctness gate and the
   allocation per request.

   With [~faithful:true] a durable workload also does what the daemon
   does around exec_on: its journal fsyncs, and after each CHECKPOINT or
   DRAIN it persists like mqdp_serve (epoch shard snapshots, manifest,
   journal compaction). The traced run uses that mode, so its in-process
   time covers everything the daemon does except the network. *)

module W = Workload

let config = { Mqdp.Serve.default_config with Mqdp.Serve.shards = 4; jobs = 1 }

type t = {
  responses : string list array;
  alloc_bytes_per_req : float;  (** measured phases *)
  measured_s : float;  (** wall time of the measured phases' requests *)
  journal : string list;  (** journaled payloads, read back with Journal.load, in order *)
  compactions : (int * string list) list;
      (** (script index, payloads the compaction wrote), in order *)
}

let now_ns = Util.Timer.now_ns
let ns_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

(* mqdp_serve's durability point, step for step: next epoch's snapshot
   files, one manifest write, journal compaction, old epoch removed. *)
let persist serve ~dir ~epoch =
  let file i e = Filename.concat dir (Printf.sprintf "shard-%d.ep%d.snap" i e) in
  let next = !epoch + 1 in
  for i = 0 to Mqdp.Serve.shard_count serve - 1 do
    Util.Fs.atomic_write ~path:(file i next) (Mqdp.Serve.shard_snapshot serve i)
  done;
  Util.Fs.atomic_write ~path:(Filename.concat dir "manifest")
    (Mqdp.Serve.manifest ~extra:[ ("epoch", next); ("journal", Mqdp.Serve.journal_gsn serve) ] serve);
  Mqdp.Serve.compact_journal serve;
  for i = 0 to Mqdp.Serve.shard_count serve - 1 do
    Util.Fs.remove_if_exists (file i !epoch)
  done;
  epoch := next

let journal_path dir = Filename.concat dir "sessions.journal"
let load_journal dir = fst (Util.Fs.Journal.load ~kind:"serve-sessions" (journal_path dir))

(* [observe r ~start ~serve_ns ~persist_ns] is called after each request
   when given; without it no per-request clock is read. *)
let run ?(faithful = false) ?observe (w : W.t) ~state_dir =
  let serve = Mqdp.Serve.create config in
  let durable = w.spec.durable in
  let sessions =
    if durable then
      [| Mqdp.Serve.session serve ~id:"ingest"; Mqdp.Serve.session serve ~id:"reader" |]
    else [| Mqdp.Serve.new_session serve; Mqdp.Serve.new_session serve |]
  in
  if durable then Mqdp.Serve.attach_journal ~fsync:faithful serve ~dir:state_dir ~covered:0;
  let n = Array.length w.script in
  let responses = Array.make n [] in
  (* The measured phases are one contiguous run of the script. *)
  let first = ref n and last = ref (-1) in
  Array.iter
    (fun (r : W.req) ->
      if W.measured r then begin
        first := min !first r.index;
        last := max !last r.index
      end)
    w.script;
  let a0 = ref 0. and a1 = ref 0. and t0 = ref 0L and measured_s = ref 0. in
  let epoch = ref 0 and journal = ref [] and compactions = ref [] in
  let durability_point (r : W.req) =
    faithful && durable
    && match r.kind with W.Checkpoint | W.Drain -> true | _ -> false
  in
  Array.iter
    (fun (r : W.req) ->
      if r.index = !first then begin
        Gc.minor ();
        a0 := Gc.allocated_bytes ();
        t0 := now_ns ()
      end;
      let line = W.line r in
      (match observe with
      | None ->
        responses.(r.index) <- Mqdp.Serve.exec_on serve sessions.(r.conn) line;
        if durability_point r then begin
          journal := List.rev_append (load_journal state_dir) !journal;
          persist serve ~dir:state_dir ~epoch
        end
      | Some f ->
        let s0 = now_ns () in
        responses.(r.index) <- Mqdp.Serve.exec_on serve sessions.(r.conn) line;
        let serve_ns = ns_since s0 in
        let persist_ns =
          if durability_point r then begin
            (* Reading the journal back is the benchmark's own work. *)
            journal := List.rev_append (load_journal state_dir) !journal;
            let p0 = now_ns () in
            persist serve ~dir:state_dir ~epoch;
            ns_since p0
          end
          else 0.
        in
        f r ~start:s0 ~serve_ns ~persist_ns);
      if durability_point r then compactions := (r.index, load_journal state_dir) :: !compactions;
      if r.index = !last then begin
        measured_s := ns_since !t0 /. 1e9;
        a1 := Gc.allocated_bytes ()
      end)
    w.script;
  if durable && faithful then journal := List.rev_append (load_journal state_dir) !journal;
  Mqdp.Serve.shutdown serve;
  {
    responses;
    alloc_bytes_per_req = (!a1 -. !a0) /. float_of_int (max 1 (!last - !first + 1));
    measured_s = !measured_s;
    journal = List.rev !journal;
    compactions = List.rev !compactions;
  }
