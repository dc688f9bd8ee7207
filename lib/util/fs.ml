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
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get s i)))) 0x100000001b3L
  done;
  !h

let fnv64 s = fnv64_prefix (Bytes.unsafe_of_string s) (String.length s)
let hex64 h = Printf.sprintf "%016Lx" h

(* --- Field writers: the bytes of "%d", "%016Lx" and String.escaped,
   appended in place, allocating nothing but buffer growth. --- *)

let hex_digits = "0123456789abcdef"

(* "%016Lx" of the 64-bit word whose 32-bit halves are [hi] and [lo],
   passed as native ints so no digit works on a boxed int64. *)
let add_hex_halves b hi lo =
  for i = 7 downto 0 do
    Buffer.add_char b hex_digits.[(hi lsr (4 * i)) land 15]
  done;
  for i = 7 downto 0 do
    Buffer.add_char b hex_digits.[(lo lsr (4 * i)) land 15]
  done

let add_hex64 b h =
  add_hex_halves b
    (Int64.to_int (Int64.shift_right_logical h 32))
    (Int64.to_int h land 0xffff_ffff)

(* Digits of a non-positive [n], most significant first: negating a
   positive int cannot overflow, negating [min_int] would. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b n
  end
  else add_neg_digits b (-n)

(* The halves are split here, where [bits] is an unboxed local, so a
   float field boxes no int64 on its way to the writer. *)
let add_float_bits b f =
  let bits = Int64.bits_of_float f in
  add_hex_halves b
    (Int64.to_int (Int64.shift_right_logical bits 32))
    (Int64.to_int bits land 0xffff_ffff)

let add_escaped b s =
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c < ' ' || c > '~' || c = '"' || c = '\\' then begin
      Buffer.add_substring b s !start (i - !start);
      start := i + 1;
      Buffer.add_char b '\\';
      match c with
      | '\n' -> Buffer.add_char b 'n'
      | '\t' -> Buffer.add_char b 't'
      | '\r' -> Buffer.add_char b 'r'
      | '\b' -> Buffer.add_char b 'b'
      | '"' | '\\' -> Buffer.add_char b c
      | c ->
        let a = Char.code c in
        Buffer.add_char b (Char.unsafe_chr (48 + (a / 100)));
        Buffer.add_char b (Char.unsafe_chr (48 + (a / 10 mod 10)));
        Buffer.add_char b (Char.unsafe_chr (48 + (a mod 10)))
    end
  done;
  Buffer.add_substring b s !start (String.length s - !start)

(* --- Sealing. Each domain owns one scratch buffer, so a steady stream
   of checkpoints reuses its capacity instead of growing a fresh buffer
   per image. A [seal] that finds the scratch busy (nested inside another
   [seal]'s callback) writes into a fresh buffer instead; an exception in
   the callback releases the scratch. After an image longer than
   [scratch_cap] the scratch is reset to its initial size, so a domain
   retains at most about twice that. --- *)

type scratch = { buf : Buffer.t; mutable busy : bool }

let scratch_cap = 1 lsl 20
let scratch = Domain.DLS.new_key (fun () -> { buf = Buffer.create 4096; busy = false })

(* One copy of the body: blitted into the exact-size image and hashed
   there. The 26-byte "checksum <16 hex>\n" trailer is appended to the
   scratch behind the body (which is cleared after the seal anyway) and
   blitted behind it. *)
let finish b =
  let n = Buffer.length b in
  let image = Bytes.create (n + 26) in
  Buffer.blit b 0 image 0 n;
  Buffer.add_string b "checksum ";
  add_hex64 b (fnv64_prefix image n);
  Buffer.add_char b '\n';
  Buffer.blit b n image n 26;
  Bytes.unsafe_to_string image

let seal ~magic ~version write =
  let s = Domain.DLS.get scratch in
  let owned = not s.busy in
  let b = if owned then s.buf else Buffer.create 4096 in
  let release () =
    if owned then begin
      if Buffer.length b > scratch_cap then Buffer.reset b else Buffer.clear b;
      s.busy <- false
    end
  in
  s.busy <- true;
  match
    Buffer.add_string b magic;
    Buffer.add_string b " v";
    add_int b version;
    Buffer.add_char b '\n';
    write b;
    finish b
  with
  | image ->
    release ();
    image
  | exception e ->
    release ();
    raise e

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
  if hex64 (fnv64_prefix (Bytes.unsafe_of_string text) stop) <> String.sub text (stop + 9) 16 then corrupt "checksum mismatch";
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
    let b = Buffer.create (String.length payload + 20) in
    Buffer.add_string b "R ";
    add_hex64 b (fnv64 payload);
    Buffer.add_char b ' ';
    Buffer.add_string b payload;
    Buffer.add_char b '\n';
    Buffer.contents b

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
