(** The one JSON codec: every JSON this project emits (bench results,
    [check]/[estimate --format json], the [--trace-out] span log, serve
    replies and typed errors) is built as a {!t} and printed here, and
    the wire protocol parses requests with it.

    The project depends on no JSON library, and the needs are small, so
    this is a deliberately small recursive-descent parser plus a
    printer, total over arbitrary bytes — a malformed or non-UTF-8
    payload yields [Error msg], never an exception — which is exactly
    the contract the serve wire fuzzer hammers on.

    Numbers: integers parse as [Int]; anything with a fraction or
    exponent as [Float].  Strings must be valid UTF-8 after unescaping
    ([\uXXXX] escapes cover the BMP only — surrogate pairs are
    rejected, which the protocol never needs).  The printer is compact
    (no whitespace) and keeps field order.  It escapes the double
    quote, backslash, newline, carriage return and tab by their short
    forms and every other byte below 0x20 as [\u00XX], and passes all
    other bytes through.  It prints floats with [%.12g] and non-finite
    floats as [null] (JSON has no spelling for
    them; typed fields that can be unbounded render themselves
    explicitly). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Total: any input yields a value or a one-line error message with a
    byte offset.  Trailing non-whitespace after the value is an
    error. *)

val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string

val utf8_valid : string -> bool
(** Whole-string UTF-8 validity (the framing layer rejects non-UTF-8
    payloads before parsing). *)

(** {2 Accessors} — all total, [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] for absent fields and non-objects. *)

val to_int : t -> int option

val to_float : t -> float option
(** Accepts [Int] too. *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
