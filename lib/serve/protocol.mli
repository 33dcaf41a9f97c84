(** The wire protocol of [ilp-limits serve].

    Framing: every message is a 4-byte big-endian length prefix
    followed by that many bytes of UTF-8 JSON.  Frames above
    {!max_frame} are refused — and because the stream position after
    an oversized declaration is unknowable, the connection closes
    (desync).  Every other malformed payload (bad JSON, non-UTF-8,
    wrong shape) is answered with a typed error on the {e same}
    connection: the frame boundary is intact, so the session
    survives.

    Requests are objects with an integer ["id"] (echoed verbatim in
    the response; duplicate ids on one connection are refused) and an
    ["op"]:

    {v
    {"id":N, "op":"ping"}
    {"id":N, "op":"stats"}
    {"id":N, "op":"metrics"}
    {"id":N, "op":"analyze",
     "workload":"puzzle" | "source":"int main() { ... }",
     "machines":["sp-cd-mf","oracle"],      // optional, [] = paper 7
     "fuel":1000000, "step_budget":500000,  // optional quotas
     "mem_words":65536, "deadline_ms":2000, // optional quotas
     "inject":{"kind":"opcode","seed":7}}   // optional seeded fault
    v}

    Responses are [{"id":N, "ok":true, ...}] or [{"id":N, "ok":false,
    "error":{...}}] with the error object rendered by
    {!Pipeline_error.to_json} — [cause] and [code] are the stable
    discriminators, cause-specific fields ([retry_after_ms], ...) are
    structured, and clients never parse message text. *)

val max_frame : int
(** Largest accepted payload (1 MiB). *)

(** {2 Framing} *)

type frame_error =
  | Closed  (** clean EOF at a frame boundary *)
  | Truncated  (** EOF mid-frame *)
  | Too_large of int  (** declared length beyond {!max_frame} *)
  | Io of string

val read_frame : Unix.file_descr -> (string, frame_error) result
(** Blocking read of one frame.  Total: every outcome, including a
    torn header or oversized declaration, is a value. *)

val write_frame : Unix.file_descr -> string -> (unit, string) result
(** Write one frame (length prefix + payload).  [Error] on payloads
    above {!max_frame} or I/O failure. *)

(** {2 Requests} *)

type analyze = {
  a_workload : string option;  (** registry name *)
  a_source : string option;  (** ad-hoc Mini-C (wins over [a_workload]) *)
  a_machines : string list;  (** machine specs; [] = the paper seven *)
  a_fuel : int option;
  a_step_budget : int option;
  a_mem_words : int option;
  a_deadline_ms : int option;
  a_inject : (string * int) option;  (** fault kind name, seed *)
}

type request =
  | Ping of int
  | Stats of int
  | Metrics of int
  | Analyze of int * analyze

val decode_request : Stdx.Jsonx.t -> (request, string) result
(** Shape-check a parsed payload.  The message names the offending
    field; the caller wraps it as a typed [Invalid_request]. *)

val request_id : Stdx.Jsonx.t -> int option
(** Best-effort id extraction from any payload, so even a
    shape-rejected request gets its id echoed. *)

(** {2 Request rendering (client side)} *)

val ping_request : id:int -> string
val stats_request : id:int -> string
val metrics_request : id:int -> string

val analyze_request : id:int -> analyze -> string

val analyze :
  ?source:string ->
  ?machines:string list ->
  ?fuel:int ->
  ?step_budget:int ->
  ?mem_words:int ->
  ?deadline_ms:int ->
  ?inject:string * int ->
  ?workload:string ->
  unit ->
  analyze
(** Convenience constructor; defaults: no overrides, paper machines. *)

(** {2 Response rendering (server side)} *)

val ok_ping : id:int -> string

val ok_analyze : id:int -> cached:bool -> Harness.Request.reply -> string
(** [{"id":N,"ok":true,"cached":B,"steps":S,"status":...,
    "results":[{machine,counted,cycles,parallelism,...},...]}].
    Results render in spec order; [parallelism] with a fixed format so
    a cached reply is byte-identical to a fresh one. *)

val ok_stats :
  id:int ->
  queue_depth:int ->
  queue_limit:int ->
  in_flight:int ->
  connections:int ->
  requests:int ->
  shed:int ->
  cache_hits:int ->
  cache_misses:int ->
  draining:bool ->
  string

val ok_metrics : id:int -> body:string -> string
(** The Prometheus exposition text as one JSON string field. *)

val error_response : id:int option -> Pipeline_error.t -> string
(** [{"id":N|null,"ok":false,"error":{...}}]. *)

(** {2 Response decoding (client side)} *)

type response = {
  r_id : int option;
  r_ok : bool;
  r_body : Stdx.Jsonx.t;  (** the whole response object *)
  r_error_cause : string option;  (** ["error"]["cause"] when not ok *)
  r_retry_after_ms : int option;  (** [Overloaded]'s structured hint *)
}

val decode_response : Stdx.Jsonx.t -> response
