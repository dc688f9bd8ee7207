(* The load generator: one thread, at most two connections.

   Two-connection workloads go through a non-blocking [select] loop: the
   ingest connection carries FEED/TICK/CHECKPOINT, the reader carries
   REPORT/QUERY. In the open-loop phase every request goes out at its due
   time whatever is still in flight; in the capacity phase ingest keeps
   up to 32 requests in flight and the reader one, a reader request
   waiting until the ingest requests it follows have been sent. pingpong
   drives one connection through Mqdp.Client over Net.Line_client, one
   request in flight, in both phases.

   Response bytes are kept raw and split into per-request responses after
   the run; during it the loop only finds each response's final line
   ("<seq> OK ..." or "<seq> ERR ...") to stamp its completion time. *)

module W = Workload

let now () = Util.Timer.now ()

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;
  mutable out_off : int;
  mutable raw : string list;  (* response bytes as read, newest first *)
  inflight : int Queue.t;  (* script indices awaiting their final line *)
  mutable order : int list;  (* script indices in send order, newest first *)
  head : Bytes.t;  (* the first bytes of the line being received *)
  mutable head_len : int;
}

type t = {
  script : W.req array;
  sent : float array;  (* send time by script index; nan until sent *)
  done_ : float array;  (* completion time; nan until answered *)
  responses : string list array;
  mutable conns : conn array;
  record : bool;
  mutable chunks : (int * string) list;  (* trace: (conn, bytes written), newest first *)
  scratch : Bytes.t;
  mutable gave_up : int;
}

let create ~record (w : W.t) =
  let n = Array.length w.script in
  {
    script = w.script;
    sent = Array.make n Float.nan;
    done_ = Array.make n Float.nan;
    responses = Array.make n [];
    conns = [||];
    record;
    chunks = [];
    scratch = Bytes.create 65536;
    gave_up = 0;
  }

let new_conn fd =
  Unix.set_nonblock fd;
  {
    fd;
    out = Buffer.create 4096;
    out_off = 0;
    raw = [];
    inflight = Queue.create ();
    order = [];
    head = Bytes.create 24;
    head_len = 0;
  }

(* HELLO before the connection goes non-blocking: the greeting is one
   line, "0 OK hello <id> seq=<watermark>". *)
let hello fd id =
  let msg = Printf.sprintf "HELLO %s\n" id in
  ignore (Unix.write_substring fd msg 0 (String.length msg));
  let b = Bytes.create 1 and line = Buffer.create 64 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> Daemon.failf "connection closed during HELLO"
    | _ when Bytes.get b 0 = '\n' -> ()
    | _ ->
      Buffer.add_char line (Bytes.get b 0);
      go ()
  in
  go ();
  let greeting = Buffer.contents line in
  if not (String.starts_with ~prefix:"0 OK hello" greeting) then
    Daemon.failf "unexpected HELLO greeting %S" greeting

let attach t fds = t.conns <- Array.map new_conn fds

let enqueue t c (r : W.req) at =
  Buffer.add_string c.out r.W.wire;
  t.sent.(r.index) <- at;
  Queue.push r.index c.inflight;
  c.order <- r.index :: c.order

let flush t i c =
  let len = Buffer.length c.out - c.out_off in
  if len > 0 then
    match Unix.write_substring c.fd (Buffer.contents c.out) c.out_off len with
    | n ->
      if t.record then t.chunks <- (i, Buffer.sub c.out c.out_off n) :: t.chunks;
      c.out_off <- c.out_off + n;
      if c.out_off = Buffer.length c.out then begin
        Buffer.clear c.out;
        c.out_off <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) ->
      Daemon.failf "write to mqdp_serve failed: %s" (Unix.error_message e)

(* "<digits> OK" or "<digits> ERR", then a space or the end of line. *)
let is_final head len =
  let rec digits i = if i < len && Bytes.get head i >= '0' && Bytes.get head i <= '9' then digits (i + 1) else i in
  let i = digits 0 in
  let word w =
    let l = String.length w in
    i + 1 + l <= len
    && Bytes.get head i = ' '
    && Bytes.sub_string head (i + 1) l = w
    && (i + 1 + l = len || Bytes.get head (i + 1 + l) = ' ')
  in
  i > 0 && (word "OK" || word "ERR")

let receive t c at =
  match Util.Netio.read_into c.fd t.scratch with
  | `Data n ->
    (* One small string per read: a growing buffer would stall the
       generator for milliseconds each time it doubles. *)
    c.raw <- Bytes.sub_string t.scratch 0 n :: c.raw;
    for k = 0 to n - 1 do
      let ch = Bytes.unsafe_get t.scratch k in
      if ch = '\n' then begin
        if is_final c.head c.head_len then begin
          match Queue.take_opt c.inflight with
          | Some idx -> t.done_.(idx) <- at
          | None -> Daemon.failf "mqdp_serve answered a request never sent"
        end;
        c.head_len <- 0
      end
      else if c.head_len < Bytes.length c.head then begin
        Bytes.unsafe_set c.head c.head_len ch;
        c.head_len <- c.head_len + 1
      end
    done
  | `Again -> ()
  | `Eof | `Closed -> Daemon.failf "mqdp_serve closed the connection"

(* One select round: wait at most [timeout] for replies or writability. *)
let pump t ~timeout =
  let reads =
    Array.to_list t.conns
    |> List.filter_map (fun c -> if Queue.is_empty c.inflight then None else Some c.fd)
  in
  let writes =
    Array.to_list t.conns
    |> List.filter_map (fun c -> if Buffer.length c.out > c.out_off then Some c.fd else None)
  in
  let readable, writable, _ =
    try Unix.select reads writes [] (Float.max 0. timeout)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  let at = now () in
  Array.iteri
    (fun i c ->
      if List.memq c.fd readable then receive t c at;
      if List.memq c.fd writable then flush t i c)
    t.conns

let spin = 200e-6

(* Block until [at]: sleep most of the way, spin the rest. *)
let wait_until at =
  let ahead = at -. now () -. spin in
  if ahead > 0. then Unix.sleepf ahead;
  while now () < at do
    ()
  done

let deadline_guard ~until =
  if now () > until then Daemon.failf "mqdp_serve stopped answering"

(* Open loop: [reqs] in script order; request r is due at [start + r.due]. *)
let open_loop t (reqs : W.req list) =
  let queues = Array.map (fun _ -> Queue.create ()) t.conns in
  List.iter (fun (r : W.req) -> Queue.push r queues.(r.conn)) reqs;
  let last_due = List.fold_left (fun acc (r : W.req) -> Float.max acc r.due) 0. reqs in
  let start = now () +. 0.01 in
  let until = start +. (3. *. last_due) +. 60. in
  let busy () =
    Array.exists (fun q -> not (Queue.is_empty q)) queues
    || Array.exists (fun c -> not (Queue.is_empty c.inflight)) t.conns
  in
  while busy () do
    let at = now () in
    Array.iteri
      (fun i q ->
        let c = t.conns.(i) in
        while (not (Queue.is_empty q)) && start +. (Queue.peek q).W.due <= at do
          enqueue t c (Queue.pop q) at
        done;
        flush t i c)
      queues;
    let next =
      Array.fold_left
        (fun acc q -> if Queue.is_empty q then acc else Float.min acc (start +. (Queue.peek q).W.due))
        infinity queues
    in
    (* Sleep to within [spin] of the next due time, then poll: a select
       timeout alone wakes tens of microseconds late. *)
    let timeout = if Float.is_finite next then next -. now () -. spin else 1. in
    pump t ~timeout;
    deadline_guard ~until
  done;
  start

(* Closed loop: ingest keeps [depth] requests in flight, the reader one,
   gated on the ingest requests it follows. *)
let closed_loop t ?(depth = 32) (reqs : W.req list) =
  let queues = Array.map (fun _ -> Queue.create ()) t.conns in
  List.iter (fun (r : W.req) -> Queue.push r queues.(r.conn)) reqs;
  let ingest_sent = ref 0 in
  let until = now () +. 150. in
  let busy () =
    Array.exists (fun q -> not (Queue.is_empty q)) queues
    || Array.exists (fun c -> not (Queue.is_empty c.inflight)) t.conns
  in
  while busy () do
    let at = now () in
    Array.iteri
      (fun i q ->
        let c = t.conns.(i) in
        let limit = if i = 0 then depth else 1 in
        while
          (not (Queue.is_empty q))
          && Queue.length c.inflight < limit
          && (i = 0 || (Queue.peek q).W.gate <= !ingest_sent)
        do
          enqueue t c (Queue.pop q) at;
          if i = 0 then incr ingest_sent
        done;
        flush t i c)
      queues;
    pump t ~timeout:1.;
    deadline_guard ~until
  done

(* Split each connection's raw bytes into per-request responses, in the
   order the requests were sent. *)
let collect t =
  Array.iter
    (fun c ->
      let lines = String.split_on_char '\n' (String.concat "" (List.rev c.raw)) in
      let rec assign order acc lines =
        match (order, lines) with
        | [], _ -> ()
        | _ :: _, ([] | [ "" ]) -> ()
        | idx :: rest, line :: more ->
          let head = Bytes.of_string (if String.length line > 24 then String.sub line 0 24 else line) in
          if is_final head (Bytes.length head) then begin
            t.responses.(idx) <- List.rev (line :: acc);
            assign rest [] more
          end
          else assign order (line :: acc) more
      in
      assign (List.rev c.order) [] lines;
      c.raw <- [])
    t.conns

let close t =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  t.conns <- [||]

(* {2 pingpong: Mqdp.Client, one request in flight} *)

type client = { lc : Net.Line_client.t; cl : Mqdp.Client.t }

let client ~port =
  let lc = Net.Line_client.create ~port () in
  { lc; cl = Mqdp.Client.create (Net.Line_client.io lc) }

let close_client c = Net.Line_client.close c.lc

(* Sends [reqs] one at a time; with [~start], request r waits for
   [start + r.due] (open loop), otherwise it goes as soon as the previous
   one is answered. *)
let pingpong t c ?start (reqs : W.req list) =
  List.iter
    (fun (r : W.req) ->
      Option.iter (fun s -> wait_until (s +. r.due)) start;
      let at = now () in
      t.sent.(r.index) <- at;
      if t.record then t.chunks <- (0, r.W.wire) :: t.chunks;
      match Mqdp.Client.request c.cl r.cmd with
      | Ok lines ->
        t.done_.(r.index) <- now ();
        t.responses.(r.index) <- lines
      | Error (Mqdp.Client.Gave_up _) -> t.gave_up <- t.gave_up + 1)
    reqs
