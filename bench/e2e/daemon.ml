(* The mqdp_serve child process: spawn, wait for its port, read its peak
   RSS, stop it. Every child and every scratch directory is registered so
   that any exit path (success, failed check, exception, SIGINT) kills
   and reaps the children and removes the directories. *)

let binary = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "mqdp_serve.exe"))
let work_root = ".bench_e2e"

let children : int list ref = ref []
let scratch_dirs : string list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let status = go () in
  children := List.filter (fun p -> p <> pid) !children;
  status

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap pid)

let cleanup () =
  List.iter kill !children;
  List.iter Util.Fs.remove_tree !scratch_dirs;
  scratch_dirs := []

let () = at_exit cleanup

let ensure_dir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* A fresh scratch directory under .bench_e2e/, removed at exit. *)
let scratch_dir name =
  ensure_dir work_root;
  let d = Filename.concat work_root (Printf.sprintf "%s.%d" name (Unix.getpid ())) in
  Util.Fs.remove_tree d;
  ensure_dir d;
  scratch_dirs := d :: !scratch_dirs;
  d

let fsync_path path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

(* Copy [src] to [dst] and make the copy durable: a boot that fsyncs its
   state dir must not also pay for flushing the copy. *)
let rec copy_tree src dst =
  ensure_dir dst;
  Array.iter
    (fun entry ->
      let s = Filename.concat src entry and d = Filename.concat dst entry in
      if Sys.is_directory s then copy_tree s d
      else begin
        let data = Util.Fs.read s in
        let oc = open_out_bin d in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data);
        fsync_path d
      end)
    (Sys.readdir src);
  fsync_path dst

(* An unused loopback port: bind port 0, read it back, release it. *)
let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> failwith "free_port: not an inet socket")

(* The daemon gets CPU 0 and this process (the load generator) CPU 1:
   left to the scheduler, the two share a CPU now and then and the
   generator stalls for a time slice. Needs taskset and two CPUs;
   without them nothing is pinned. *)
let taskset = ref None

let which prog =
  String.split_on_char ':' (Option.value ~default:"/usr/bin:/bin" (Sys.getenv_opt "PATH"))
  |> List.map (fun dir -> Filename.concat dir prog)
  |> List.find_opt Sys.file_exists

let pin_self () =
  if Domain.recommended_domain_count () >= 2 then
    match which "taskset" with
    | None -> ()
    | Some ts -> (
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Fun.protect
          ~finally:(fun () -> Unix.close null)
          (fun () ->
            Unix.create_process ts
              [| ts; "-cp"; "1"; string_of_int (Unix.getpid ()) |]
              Unix.stdin null null)
      in
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> taskset := Some ts
      | _ -> ())

type t = { pid : int; port : int; log : string }

exception Failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* The same configuration for every workload: 4 shards, one tick job
   (the daemon gets one core, the load generator the other). *)
let spawn ~log ?state_dir () =
  if not (Sys.file_exists binary) then failf "%s is missing; build it first" binary;
  let port = free_port () in
  let args =
    [ binary; "--port"; string_of_int port; "--shards"; "4"; "--jobs"; "1" ]
    @ match state_dir with Some d -> [ "--state-dir"; d ] | None -> []
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () ->
        match !taskset with
        | Some ts -> Unix.create_process ts (Array.of_list (ts :: "-c" :: "0" :: args)) null out out
        | None -> Unix.create_process binary (Array.of_list args) null out out)
  in
  children := pid :: !children;
  { pid; port; log }

let exited t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ ->
    children := List.filter (fun p -> p <> t.pid) !children;
    true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let log_tail t =
  match Util.Fs.read t.log with
  | s ->
    let n = String.length s in
    if n > 2000 then String.sub s (n - 2000) 2000 else s
  | exception Sys_error _ -> ""

(* Connect once the daemon listens, polling every 0.1 ms: the poll
   interval is part of every set-up time. *)
let connect ?(timeout = 30.) t =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port)) with
    | () ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.EINTR), _, _) ->
      Unix.close fd;
      if exited t then failf "mqdp_serve exited during start-up:\n%s" (log_tail t);
      if Unix.gettimeofday () > deadline then failf "mqdp_serve never listened";
      Unix.sleepf 0.0001;
      go ()
  in
  go ()

(* Peak resident set (VmHWM) in MiB, read while the daemon still runs. *)
let peak_rss_mib t =
  let path = Printf.sprintf "/proc/%d/status" t.pid in
  (* /proc files report length 0, so read them line by line. *)
  let rec find ic =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l -> Some l
    | _ -> find ic
    | exception End_of_file -> None
  in
  match open_in path with
  | exception Sys_error e -> failf "cannot read %s: %s" path e
  | ic ->
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> find ic) in
    (match line with
    | None -> failf "no VmHWM in %s" path
    | Some l ->
      let kb =
        String.split_on_char ' ' l
        |> List.filter_map int_of_string_opt
        |> function
        | kb :: _ -> kb
        | [] -> failf "unreadable %S" l
      in
      float_of_int kb /. 1024.)

(* CPU seconds (user + system) the daemon has used so far: fields 14 and
   15 of /proc/<pid>/stat, in USER_HZ = 100 ticks. *)
let cpu_seconds t =
  let path = Printf.sprintf "/proc/%d/stat" t.pid in
  match open_in path with
  | exception Sys_error e -> failf "cannot read %s: %s" path e
  | ic -> (
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    (* The command name may hold spaces; fields restart after its ')'. *)
    let rest =
      let i = String.rindex line ')' in
      String.sub line (i + 2) (String.length line - i - 2)
    in
    match String.split_on_char ' ' rest with
    | _state :: f ->
      let field k = float_of_string (List.nth f k) in
      (field 10 +. field 11) /. 100.
    | [] -> failf "unreadable %s" path)

(* Time a hypervisor took from the machine's CPUs, in seconds: the
   steal column of /proc/stat, summed over CPUs. *)
let steal_seconds () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.
  | ic ->
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    (match List.filter (fun s -> s <> "") (String.split_on_char ' ' line) with
    | "cpu" :: fields when List.length fields >= 8 -> float_of_string (List.nth fields 7) /. 100.
    | _ -> 0.)

(* SIGTERM: the daemon drains, writes final snapshots and must exit 0. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  match reap t.pid with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> failf "mqdp_serve exited %d after SIGTERM:\n%s" n (log_tail t)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    failf "mqdp_serve died of signal %d after SIGTERM" n

let kill_now t = kill t.pid
