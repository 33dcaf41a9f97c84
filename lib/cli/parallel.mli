(** The one definition of the parallelism command-line surface.

    [run], [serve], [fuzz] and the bench all take the same two knobs —
    [--jobs] and [--segment-steps].  The flags are declared once (the
    Cmdliner terms below; the bench, which parses argv by hand, reuses
    the pure parsers), and every malformed value takes the same typed
    error path: an [Invalid_request] {!Pipeline_error.t}, exit code 2.

    None of these parsers can affect analysis results: jobs and stride
    are scheduling-only by the pool's determinism contract. *)

val resolve_jobs : int option -> int
(** An absent [--jobs] means {!Stdx.Pool.recommended_jobs}. *)

val validate_jobs : int -> (int, Pipeline_error.t) result
(** Re-exported {!Harness.validate_jobs}: positive, or the typed
    [Invalid_request] (exit 2). *)

val segmenting_of_flag :
  string option -> (Harness.segmenting, Pipeline_error.t) result
(** [--segment-steps N|auto] → the harness segmenting policy.  [None]
    is [`Off]; anything not a positive integer or ["auto"] is the
    typed [Invalid_request]. *)

(** {2 Cmdliner terms}

    Shared flag declarations, so names, docv and docs cannot drift
    between subcommands.  [segment_steps_arg] takes an optional [doc]
    override because run (per workload) and serve (per request) shard
    different units of work. *)

val jobs_arg : int option Cmdliner.Term.t
val segment_steps_arg : ?doc:string -> unit -> string option Cmdliner.Term.t
