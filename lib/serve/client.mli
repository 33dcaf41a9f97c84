(** Client side of the serve protocol: connect, frame, retry.

    {!call} is one request/response exchange on an open connection.
    {!call_retry} adds the resilience policy the soak and CI paths
    use: seeded-jitter exponential backoff on [Overloaded] responses
    (honouring the server's [retry_after_ms] hint) and on connection
    failures.  The jitter stream is {!Fault.Injector.Rng.derive} of
    [(seed, attempt)], so a retrying client is exactly reproducible —
    the same discipline the fault injector applies everywhere else. *)

type addr =
  | Unix_sock of string  (** socket path *)
  | Tcp of string * int  (** host, port *)

type t

val connect : addr -> (t, string) result

val close : t -> unit

val fresh_id : t -> int
(** Next request id on this connection (monotonic from 1). *)

val call : t -> string -> (Stdx.Jsonx.t, string) result
(** Send one framed JSON payload and read the framed response.
    [Error] on I/O failure or an unparseable reply — a {e typed} error
    response is an [Ok] carrying the decoded object. *)

type outcome = {
  o_response : Protocol.response;
  o_attempts : int;  (** exchanges performed, >= 1 *)
}

val call_retry :
  ?attempts:int ->
  ?base_ms:int ->
  seed:int ->
  addr ->
  make_payload:(id:int -> string) ->
  (outcome, string) result
(** Open a fresh connection per attempt and exchange once.  Retries —
    up to [attempts] (default 5) — when the connection fails or the
    response is the typed [Overloaded] shed.  Backoff before attempt
    [k] is [retry_after_ms + base_ms * 2^k + jitter] where [jitter]
    is [Rng.derive ~seed ~index:k mod base_ms] ([base_ms] default
    10).  Returns the last response (shed included) once attempts are
    exhausted; [Error] only when every attempt failed at the I/O
    level. *)
