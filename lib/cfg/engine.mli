(** Pluggable static-diagnostics engine.

    A {!pass} is a named analysis over an {!Analysis.t} that emits
    diagnostics at program points; the engine runs a list of passes
    under a {!config} (per-pass enable and severity overrides, strict
    mode), in the order given, and returns one deterministic
    {!report}: diagnostics sorted by (procedure, pc, pass name), with
    per-pass wall-clock timings.

    Passes share expensive analyses through the {!ctx} they receive:
    SCCP results, uninitialized-read facts and liveness are computed
    lazily, at most once per engine run, however many passes consume
    them.

    Observability: every run wraps each pass in an {!Obs.Span} (into
    the caller's {!Obs.Ctx.t} when one is supplied) and accumulates
    two metric families in the metrics registry —
    [verify_diagnostics_total{class="<pass>"}] counting emitted
    diagnostics and [static_pass_ns{pass="<pass>"}] summing pass
    wall-clock nanoseconds.  Without an explicit context the counters
    land in {!Obs.Metrics.global}, like the pipeline counters. *)

type severity = Error | Warning

type diag = {
  d_proc : int;  (** procedure index; [-1] if the pc is out of range *)
  d_proc_name : string;
  d_pc : int;
  d_block : int;  (** global block id; [-1] if out of range *)
  d_severity : severity;  (** effective severity, after config/strict *)
  d_pass : string;
  d_message : string;
  d_disasm : string;
}

type ctx = {
  analysis : Analysis.t;
  sccp : Sccp.t array Lazy.t;  (** per procedure, {!Sccp.run} *)
  uninit : Dataflow.Uninit.t array Lazy.t;
      (** per procedure, with the calling-convention entry assumptions:
          [sp] is always defined; non-entry procedures additionally
          assume [ra], the argument registers and the float argument
          registers. *)
  liveness : Dataflow.Liveness.t array Lazy.t;
}

val create_ctx : Analysis.t -> ctx

type pass = {
  p_name : string;  (** stable kebab-case class name *)
  p_help : string;
  p_severity : severity;  (** default severity of its diagnostics *)
  p_run : ctx -> emit:(pc:int -> string -> unit) -> unit;
}

type config = {
  disabled : string list;  (** pass names to skip *)
  severities : (string * severity) list;  (** per-pass overrides *)
  strict : bool;  (** promote warnings to errors (after overrides) *)
}

val default_config : config
(** Everything enabled, default severities, not strict. *)

type timing = {
  t_pass : string;
  t_ns : int64;
  t_diags : int;  (** diagnostics emitted by this pass *)
}

type report = {
  diags : diag list;  (** sorted by (procedure, pc, pass name) *)
  n_errors : int;
  n_warnings : int;
  timings : timing list;  (** executed passes, in execution order *)
}

val run :
  ?obs:Obs.Ctx.t ->
  ?config:config ->
  ?workload:string ->
  pass list ->
  Analysis.t ->
  report
(** [run passes a] executes the enabled passes in list order.
    [workload] labels the recorded spans. *)

val max_severity : report -> severity option
(** [None] on a clean report. *)

val pp_diag : Format.formatter -> diag -> unit
(** One line:
    [error: main: pc 3 (block 0) [uninit-read]: message | disasm]. *)

val render_text : Format.formatter -> report -> unit
(** Every diagnostic, one per line, plus a summary line. *)

val to_json : report -> Stdx.Jsonx.t
(** The report as a JSON object:
    [{"diagnostics":[...],"errors":n,"warnings":n,"passes":[...]}]. *)
