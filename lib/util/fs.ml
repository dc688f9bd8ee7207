exception Crashed of { path : string; temp : string; written : int }

(* Unique temp siblings: a fixed ".tmp" suffix lets two concurrent
   writers to the same destination stage into the same file and corrupt
   each other. The pid distinguishes processes, the counter distinguishes
   writers inside one process. The ".tmp." infix is what [is_temp] and
   [sweep_temps] key on. *)
let temp_infix = ".tmp."
let temp_counter = Atomic.make 0

let temp_path path =
  Printf.sprintf "%s%s%d.%d" path temp_infix (Unix.getpid ())
    (Atomic.fetch_and_add temp_counter 1)

(* Matches "<base>.tmp.<digits>.<digits>", scanning from the right. *)
let is_temp name =
  let i = ref (String.length name) in
  let digits () =
    let stop = !i in
    while !i > 0 && name.[!i - 1] >= '0' && name.[!i - 1] <= '9' do
      decr i
    done;
    stop > !i
  in
  let dot () =
    if !i > 0 && name.[!i - 1] = '.' then (
      decr i;
      true)
    else false
  in
  digits () && dot () && digits ()
  && !i >= 5
  && String.sub name (!i - 5) 5 = ".tmp."

(* fsync the directory holding [path] so the rename itself survives power
   loss. Best-effort: some filesystems refuse fsync on a directory fd, and
   a missing dir fsync only weakens durability, never correctness. *)
let fsync_parent path =
  let dir = Filename.dirname path in
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

(* The crash hook writes the permitted prefix and raises without closing
   cleanly — the temp file is left torn on disk, which is exactly the
   state a process killed mid-write leaves behind. Readers never look at
   temp siblings, so the destination stays whatever it was. *)
let atomic_write ?(fsync = true) ?crash_after ~path content =
  let tmp = temp_path path in
  let oc = open_out_bin tmp in
  (match crash_after with
  | Some n when n < String.length content ->
    let n = max 0 n in
    output_substring oc content 0 n;
    flush oc;
    close_out_noerr oc;
    raise (Crashed { path; temp = tmp; written = n })
  | Some _ | None ->
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc content;
        flush oc;
        if fsync then Unix.fsync (Unix.descr_of_out_channel oc)));
  Sys.rename tmp path;
  if fsync then fsync_parent path

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let remove_if_exists path = try Sys.remove path with Sys_error _ -> ()

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> remove_if_exists path
  | exception Sys_error _ -> ()

let sweep_temps dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
    Array.fold_left
      (fun n name ->
        if is_temp name then (
          remove_if_exists (Filename.concat dir name);
          n + 1)
        else n)
      0 names

(* ------------------------------------------------------------------ *)
(* Sealed images: "<magic> v<N>\n" + body lines + "checksum <hex>\n".  *)
(* ------------------------------------------------------------------ *)

exception Corrupt of string
exception Unsupported_version of { found : string; expected : int }

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* FNV-1a-64 over the first [len] bytes of [s]. *)
let fnv64_prefix s len =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) 0x100000001b3L
  done;
  !h

let fnv64 s = fnv64_prefix s (String.length s)
let hex64 h = Printf.sprintf "%016Lx" h
let line b fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt

(* Two copies of the body, no more: [Buffer.contents] to hash it, and the
   exact-size concatenation with the trailer. *)
let seal ~magic ~version write =
  let b = Buffer.create 4096 in
  line b "%s v%d" magic version;
  write b;
  let body = Buffer.contents b in
  String.concat "" [ body; "checksum "; hex64 (fnv64 body); "\n" ]

type cursor = { text : string; mutable pos : int; stop : int }

let cursor text = { text; pos = 0; stop = String.length text }
let at_end cur = cur.pos >= cur.stop

let next cur =
  if at_end cur then corrupt "truncated image";
  let nl =
    match String.index_from_opt cur.text cur.pos '\n' with
    | Some nl when nl < cur.stop -> nl
    | Some _ | None -> cur.stop
  in
  let l = String.sub cur.text cur.pos (nl - cur.pos) in
  cur.pos <- nl + 1;
  l

let field cur key =
  let l = next cur in
  let k = String.length key in
  if l = key then ""
  else if String.length l > k && l.[k] = ' ' && String.starts_with ~prefix:key l then
    String.sub l (k + 1) (String.length l - k - 1)
  else corrupt "expected %S line, found %S" key l

let expect cur key = String.split_on_char ' ' (field cur key)

let int_field what s =
  match int_of_string_opt s with Some n -> n | None -> corrupt "bad integer %S in %s" s what

let unescape s =
  try Scanf.unescaped s with Scanf.Scan_failure _ | Failure _ -> corrupt "bad escaped field"

(* Integrity first: the checksum is verified before the header is read.
   The one exception is an image with no trailer at all whose complete
   header names [magic] at another version: written before its kind was
   sealed, so a version skew rather than damage. *)
let unseal ~magic ~version text =
  let n = String.length text in
  let stop = n - String.length "checksum 0123456789abcdef\n" in
  let header cur =
    let found = field cur magic in
    if found <> Printf.sprintf "v%d" version then
      raise (Unsupported_version { found; expected = version })
  in
  if stop < 0 || text.[n - 1] <> '\n' || String.sub text stop 9 <> "checksum " then begin
    if String.contains text '\n' then (try header (cursor text) with Corrupt _ -> ());
    corrupt "missing checksum trailer"
  end;
  if hex64 (fnv64_prefix text stop) <> String.sub text (stop + 9) 16 then corrupt "checksum mismatch";
  let cur = { text; pos = 0; stop } in
  header cur;
  cur

(* ------------------------------------------------------------------ *)
(* Append-only journals.                                              *)
(* ------------------------------------------------------------------ *)

module Journal = struct
  let version = 1
  let header kind = Printf.sprintf "mqdp-journal v%d %s\n" version kind

  let render payload =
    if String.contains payload '\n' then
      invalid_arg "Fs.Journal: payload contains newline";
    Printf.sprintf "R %016Lx %s\n" (fnv64 payload) payload

  (* A record line parses iff it is exactly [render payload] for some
     payload: the "R " tag, 16 hex digits, one space, checksummed body,
     trailing newline supplied by the line split. *)
  let parse_record line =
    let n = String.length line in
    if
      n < 20
      || line.[n - 1] <> '\n'
      || String.sub line 0 2 <> "R "
      || line.[18] <> ' '
    then None
    else
      let hex = String.sub line 2 16 in
      let payload = String.sub line 19 (n - 20) in
      if hex64 (fnv64 payload) = hex then Some payload
      else None

  type t = { path : string; kind : string; mutable oc : out_channel option }

  let out t =
    match t.oc with
    | Some oc -> oc
    | None ->
      let oc =
        open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 t.path
      in
      t.oc <- Some oc;
      oc

  let close t =
    match t.oc with
    | None -> ()
    | Some oc ->
      close_out_noerr oc;
      t.oc <- None

  (* [load] tolerates exactly one kind of damage: a torn tail, the state
     a crash mid-append leaves behind. Anything wrong before the final
     record — bad header, checksum mismatch, mangled framing with intact
     data after it — is corruption and raises. Returns the good payloads
     plus the byte offset the file should be truncated to (equal to the
     file length when the tail is clean). *)
  let load ~kind path =
    let content = read path in
    let hdr = header kind in
    let hlen = String.length hdr in
    if String.length content < hlen || String.sub content 0 hlen <> hdr then
      corrupt "%s: bad journal header (want %S)" path (String.trim hdr);
    let len = String.length content in
    let records = ref [] in
    let pos = ref hlen in
    let good = ref hlen in
    (try
       while !pos < len do
         match String.index_from_opt content !pos '\n' with
         | None -> raise Exit (* torn tail: no newline *)
         | Some nl -> (
           let line = String.sub content !pos (nl - !pos + 1) in
           match parse_record line with
           | Some payload ->
             records := payload :: !records;
             pos := nl + 1;
             good := !pos
           | None ->
             (* Bad record: torn tail iff nothing follows it. *)
             if nl + 1 < len then
               corrupt "%s: corrupt record at byte %d" path !pos
             else raise Exit)
       done
     with Exit -> ());
    (List.rev !records, !good)

  let write_all ?fsync ?crash_after ~kind path payloads =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (header kind);
    List.iter (fun p -> Buffer.add_string buf (render p)) payloads;
    atomic_write ?fsync ?crash_after ~path (Buffer.contents buf)

  (* Open for appending. A missing or empty journal is created whole; an
     existing one is validated and, when its tail is torn, repaired in
     place by an atomic rewrite of the good prefix. Returns the surviving
     payloads so the caller can rebuild its state in the same pass. *)
  let open_ ?(fsync = true) ~kind path =
    let exists = Sys.file_exists path && (Unix.stat path).Unix.st_size > 0 in
    let payloads =
      if not exists then (
        atomic_write ~fsync ~path (header kind);
        [])
      else
        let payloads, good = load ~kind path in
        if good < (Unix.stat path).Unix.st_size then
          write_all ~fsync ~kind path payloads;
        payloads
    in
    ({ path; kind; oc = None }, payloads)

  (* Append one record durably: write, flush, fsync. [crash_after:n]
     simulates the process dying after [n] bytes of the record reached the
     file — the torn tail is left behind for [load] to truncate. *)
  let append ?(fsync = true) ?crash_after t payload =
    let line = render payload in
    let oc = out t in
    (match crash_after with
    | Some n when n < String.length line ->
      let n = max 0 n in
      output_substring oc line 0 n;
      flush oc;
      close_out_noerr oc;
      t.oc <- None;
      raise (Crashed { path = t.path; temp = t.path; written = n })
    | Some _ | None ->
      output_string oc line;
      flush oc;
      if fsync then Unix.fsync (Unix.descr_of_out_channel oc))

  (* Replace the whole journal with [payloads] (compaction). Goes through
     [atomic_write], so a crash leaves either the old journal or the new
     one, never a mixture. The append channel is re-opened lazily against
     the new inode. *)
  let rewrite ?(fsync = true) ?crash_after t payloads =
    close t;
    write_all ~fsync ?crash_after ~kind:t.kind t.path payloads

  let path t = t.path
end
