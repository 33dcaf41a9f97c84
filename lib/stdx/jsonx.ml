type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* UTF-8 validity: standard table-free scan rejecting overlongs,
   surrogates and > U+10FFFF. *)

let utf8_valid s =
  let n = String.length s in
  let byte i = Char.code (String.unsafe_get s i) in
  let cont i = i < n && byte i land 0xC0 = 0x80 in
  let rec go i =
    if i >= n then true
    else
      let b = byte i in
      if b < 0x80 then go (i + 1)
      else if b < 0xC2 then false (* continuation or overlong lead *)
      else if b < 0xE0 then cont (i + 1) && go (i + 2)
      else if b < 0xF0 then
        cont (i + 1) && cont (i + 2)
        && (b <> 0xE0 || byte (i + 1) >= 0xA0) (* overlong *)
        && (b <> 0xED || byte (i + 1) < 0xA0) (* surrogate *)
        && go (i + 3)
      else if b < 0xF5 then
        cont (i + 1) && cont (i + 2) && cont (i + 3)
        && (b <> 0xF0 || byte (i + 1) >= 0x90) (* overlong *)
        && (b <> 0xF4 || byte (i + 1) < 0x90) (* > U+10FFFF *)
        && go (i + 4)
      else false
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over the string, one mutable position.
   Errors unwind through a private exception and come back as
   [Error]. *)

exception Err of int * string

let fail pos msg = raise (Err (pos, msg))

type state = { s : string; len : int; mutable pos : int }

let peek st = if st.pos < st.len then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st.pos (Printf.sprintf "expected '%c'" c)

let utf8_encode buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st.pos "invalid \\u escape"

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= st.len then fail st.pos "unterminated string";
    let c = st.s.[st.pos] in
    advance st;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' -> (
      if st.pos >= st.len then fail st.pos "unterminated escape";
      let e = st.s.[st.pos] in
      advance st;
      match e with
      | '"' | '\\' | '/' ->
        Buffer.add_char buf e;
        go ()
      | 'b' -> Buffer.add_char buf '\b'; go ()
      | 'f' -> Buffer.add_char buf '\012'; go ()
      | 'n' -> Buffer.add_char buf '\n'; go ()
      | 'r' -> Buffer.add_char buf '\r'; go ()
      | 't' -> Buffer.add_char buf '\t'; go ()
      | 'u' ->
        if st.pos + 4 > st.len then fail st.pos "truncated \\u escape";
        let cp =
          (hex_digit st st.s.[st.pos] lsl 12)
          lor (hex_digit st st.s.[st.pos + 1] lsl 8)
          lor (hex_digit st st.s.[st.pos + 2] lsl 4)
          lor hex_digit st st.s.[st.pos + 3]
        in
        st.pos <- st.pos + 4;
        if cp >= 0xD800 && cp <= 0xDFFF then
          fail st.pos "surrogate \\u escape";
        utf8_encode buf cp;
        go ()
      | _ -> fail st.pos "invalid escape")
    | c when Char.code c < 0x20 -> fail st.pos "control byte in string"
    | c ->
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let consume_digits () =
    let had = ref false in
    let rec go () =
      match peek st with
      | Some ('0' .. '9') ->
        had := true;
        advance st;
        go ()
      | _ -> ()
    in
    go ();
    if not !had then fail st.pos "expected digit"
  in
  if peek st = Some '-' then advance st;
  consume_digits ();
  (match peek st with
  | Some '.' ->
    is_float := true;
    advance st;
    consume_digits ()
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
    is_float := true;
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    consume_digits ()
  | _ -> ());
  let text = String.sub st.s start (st.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail start "invalid number"
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      (* integer overflow: fall back to float *)
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail start "invalid number")

let literal st word v =
  let n = String.length word in
  if st.pos + n <= st.len && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st.pos ("expected " ^ word)

let max_depth = 64

let rec parse_value st ~depth =
  if depth > max_depth then fail st.pos "nesting too deep";
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' -> parse_obj st ~depth
  | Some '[' -> parse_list st ~depth
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st.pos (Printf.sprintf "unexpected '%c'" c)

and parse_obj st ~depth =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin
    advance st;
    Obj []
  end
  else
    let rec fields acc =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let v = parse_value st ~depth:(depth + 1) in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        fields ((key, v) :: acc)
      | Some '}' ->
        advance st;
        Obj (List.rev ((key, v) :: acc))
      | _ -> fail st.pos "expected ',' or '}'"
    in
    fields []

and parse_list st ~depth =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin
    advance st;
    List []
  end
  else
    let rec items acc =
      let v = parse_value st ~depth:(depth + 1) in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        items (v :: acc)
      | Some ']' ->
        advance st;
        List (List.rev (v :: acc))
      | _ -> fail st.pos "expected ',' or ']'"
    in
    items []

let parse s =
  if not (utf8_valid s) then Error "payload is not valid UTF-8"
  else
    let st = { s; len = String.length s; pos = 0 } in
    match parse_value st ~depth:0 with
    | v ->
      skip_ws st;
      if st.pos < st.len then
        Error (Printf.sprintf "trailing bytes at offset %d" st.pos)
      else Ok v
    | exception Err (pos, msg) ->
      Error (Printf.sprintf "%s at offset %d" msg pos)

(* ------------------------------------------------------------------ *)
(* Printer *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 32 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then
      (* shortest round-trip representation keeps goldens stable *)
      let s = Printf.sprintf "%.12g" f in
      Buffer.add_string buf s
    else Buffer.add_string buf "null"
  | Str s -> escape buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
