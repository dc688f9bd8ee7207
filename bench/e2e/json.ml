(* A minimal JSON value: enough to print the result line, read STATS
   replies and trace lines back, and round-trip --repeat files. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* Shortest decimal that reads back to the same float, so a measured
   value keeps all its digits without printing noise digits. *)
let number f =
  if not (Float.is_finite f) then invalid_arg "Json.number: not finite";
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f

let escape b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f -> Buffer.add_string b (number f)
  | Str s ->
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'
  | Arr vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        write b v)
      vs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        write b (Str k);
        Buffer.add_char b ':';
        write b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\n' || s.[!pos] = '\r')
    then begin
      incr pos;
      skip ()
    end
  in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "short \\u escape";
          (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
          | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
          | Some code -> Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | None -> fail "bad \\u escape");
          pos := !pos + 4
        | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number_ () =
    let start = !pos in
    let is_num c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f when Float.is_finite f -> Num f
    | _ -> fail "bad number"
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      skip ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec fields acc =
          skip ();
          let k = string_ () in
          skip ();
          expect ':';
          let v = value () in
          skip ();
          match peek () with
          | ',' ->
            incr pos;
            fields ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
    | '[' ->
      incr pos;
      skip ();
      if peek () = ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec items acc =
          let v = value () in
          skip ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
    | '"' -> Str (string_ ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number_ ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let field key v =
  match member key v with
  | Some x -> x
  | None -> raise (Parse_error (Printf.sprintf "missing field %S" key))

let to_float = function Num f -> f | _ -> raise (Parse_error "expected a number")
let to_int v = int_of_float (to_float v)
let to_bool = function Bool b -> b | _ -> raise (Parse_error "expected a boolean")
let to_str = function Str s -> s | _ -> raise (Parse_error "expected a string")
let to_list = function Arr vs -> vs | _ -> raise (Parse_error "expected an array")
let to_assoc = function Obj kvs -> kvs | _ -> raise (Parse_error "expected an object")
