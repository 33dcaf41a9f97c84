type kind =
  | Truncated_header
  | Truncated_body
  | Oversized
  | Empty
  | Non_utf8
  | Garbage
  | Bad_json
  | Wrong_shape
  | Duplicate_id

let all_kinds =
  [ Truncated_header; Truncated_body; Oversized; Empty; Non_utf8;
    Garbage; Bad_json; Wrong_shape; Duplicate_id ]

let kind_name = function
  | Truncated_header -> "truncated_header"
  | Truncated_body -> "truncated_body"
  | Oversized -> "oversized"
  | Empty -> "empty"
  | Non_utf8 -> "non_utf8"
  | Garbage -> "garbage"
  | Bad_json -> "bad_json"
  | Wrong_shape -> "wrong_shape"
  | Duplicate_id -> "duplicate_id"

type report = {
  cases : int;
  structured : int;
  ok_replies : int;
  closed : int;
  hung : int;
  unexpected_ok : int;
  alive : bool;
}

let passed r = r.hung = 0 && r.unexpected_ok = 0 && r.alive

(* What one exchange produced. *)
type reply =
  | R_ok
  | R_error
  | R_closed
  | R_hang

let send_raw fd s =
  let b = Bytes.of_string s in
  let rec go off len =
    if len = 0 then true
    else
      match Unix.write fd b off len with
      | n -> go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
      | exception Unix.Unix_error _ -> false
  in
  go 0 (Bytes.length b)

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  Bytes.to_string b

let read_reply ~timeout_ms fd =
  match Unix.select [ fd ] [] [] (float_of_int timeout_ms /. 1000.) with
  | [], _, _ -> R_hang
  | _ -> (
    match Protocol.read_frame fd with
    | Error _ -> R_closed
    | Ok body -> (
      match Stdx.Jsonx.parse body with
      | Error _ -> R_error (* never happens: server output is JSON *)
      | Ok json ->
        let r = Protocol.decode_response json in
        if r.r_ok then R_ok else R_error))

(* derive a deterministic byte string from the case seed *)
let bytes_of_seed ~seed n =
  String.init n (fun i ->
      Char.chr (Fault.Injector.Rng.derive ~seed ~index:i land 0xFF))

let payload_of_kind ~seed = function
  | Truncated_header -> `Raw_close "\x00\x00"
  | Truncated_body ->
    (* declares 64 bytes, delivers 10 *)
    `Raw_close ("\x00\x00\x00\x40" ^ bytes_of_seed ~seed 10)
  | Oversized ->
    let over =
      Protocol.max_frame + 1
      + (Fault.Injector.Rng.derive ~seed ~index:0 land 0xFFFF)
    in
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int over);
    `Raw (Bytes.to_string b)
  | Empty -> `Frame ""
  | Non_utf8 -> `Frame "{\"id\":1,\"op\":\"\xC0\xAF\xFF\"}"
  | Garbage -> `Frame (bytes_of_seed ~seed 32)
  | Bad_json -> `Frame "{\"id\":7,\"op\":\"pi"
  | Wrong_shape -> (
    match Fault.Injector.Rng.derive ~seed ~index:1 land 3 with
    | 0 -> `Frame "{\"op\":\"ping\"}" (* no id *)
    | 1 -> `Frame "{\"id\":3,\"op\":\"frobnicate\"}"
    | 2 -> `Frame "{\"id\":3,\"op\":\"analyze\"}" (* no workload/source *)
    | _ -> `Frame "[1,2,3]")
  | Duplicate_id -> `Dup

(* Raw socket, not {!Client}: torn writes and oversized headers need
   byte-level control the client never offers. *)
let run_case ~timeout_ms ~seed addr kind =
  let domain, sa =
    match addr with
    | Client.Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Client.Tcp (host, port) ->
      (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  in
  let s = Unix.socket domain Unix.SOCK_STREAM 0 in
  let finally () = try Unix.close s with Unix.Unix_error _ -> () in
  match Unix.connect s sa with
  | () ->
    let outcomes =
      match payload_of_kind ~seed kind with
      | `Raw_close raw ->
        ignore (send_raw s raw);
        (try Unix.shutdown s Unix.SHUTDOWN_SEND
         with Unix.Unix_error _ -> ());
        [ read_reply ~timeout_ms s ]
      | `Raw raw ->
        ignore (send_raw s raw);
        [ read_reply ~timeout_ms s ]
      | `Frame payload ->
        ignore (send_raw s (frame payload));
        [ read_reply ~timeout_ms s ]
      | `Dup ->
        let ping = "{\"id\":11,\"op\":\"ping\"}" in
        ignore (send_raw s (frame ping));
        ignore (send_raw s (frame ping));
        let a = read_reply ~timeout_ms s in
        let b = read_reply ~timeout_ms s in
        [ a; b ]
    in
    finally ();
    outcomes
  | exception Unix.Unix_error _ ->
    finally ();
    [ R_closed ]

let run ?(timeout_ms = 2000) ?(cases = 64) ~seed addr =
  let kinds = Array.of_list all_kinds in
  let structured = ref 0
  and ok_replies = ref 0
  and closed = ref 0
  and hung = ref 0
  and unexpected_ok = ref 0 in
  for i = 0 to cases - 1 do
    let kind = kinds.(i mod Array.length kinds) in
    let case_seed = Fault.Injector.Rng.derive ~seed ~index:i in
    let outcomes = run_case ~timeout_ms ~seed:case_seed addr kind in
    List.iteri
      (fun j outcome ->
        match outcome with
        | R_error -> incr structured
        | R_closed -> incr closed
        | R_hang -> incr hung
        | R_ok ->
          incr ok_replies;
          (* the only garbage that may legitimately be answered ok is
             the first half of a duplicate-id pair *)
          if not (kind = Duplicate_id && j = 0) then incr unexpected_ok)
      outcomes
  done;
  let alive =
    match Client.connect addr with
    | Error _ -> false
    | Ok conn ->
      let id = Client.fresh_id conn in
      let r = Client.call conn (Protocol.ping_request ~id) in
      Client.close conn;
      (match r with
      | Ok json -> (Protocol.decode_response json).r_ok
      | Error _ -> false)
  in
  { cases; structured = !structured; ok_replies = !ok_replies;
    closed = !closed; hung = !hung; unexpected_ok = !unexpected_ok;
    alive }
