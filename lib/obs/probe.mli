(** Sampled profiling hooks for the two hot loops: the VM interpreter
    ({!Vm.Exec.run}) and the trace analyzer ({!Ilp.Analyze}).

    A probe is a flat record of pre-registered instruments plus an
    [enabled] flag the hot loop hoists into a local.  Disabled probes
    ({!analyzer_disabled}, {!vm_disabled}) are the default everywhere:
    the per-entry cost is one immutable-bool test on paths that were
    already branchy, so an observability-off run is measurably
    indistinguishable from the pre-observability pipeline (the bench
    acceptance gate holds it under 2%).  Enabled probes still keep the
    per-entry work to plain int fields; publication to the registry
    happens once, when the state finishes.

    Expensive measurements (depth histograms) are {e sampled}: one
    observation every [sample_every] entries, so cost scales down, not
    with trace length. *)

(** Instruments for one {!Ilp.Analyze} state, labeled by machine model. *)
type analyzer = {
  a_enabled : bool;
  a_sample_every : int;  (** histogram sampling period (entries) *)
  a_entries : Metrics.counter;  (** trace entries consumed *)
  a_counted : Metrics.counter;  (** entries counted (timed) *)
  a_flushed : Metrics.counter;
      (** entries flushed after a step-budget cut *)
  a_pred_hits : Metrics.counter;  (** conditional branches predicted right *)
  a_pred_misses : Metrics.counter;  (** conditional branches mispredicted *)
  a_mispredict_flushes : Metrics.counter;
      (** speculation flush events (mispredicts incl. computed jumps) *)
  a_frame_hw : Metrics.gauge;  (** frame-stack depth high-water *)
  a_frame_depth : Metrics.histogram;  (** sampled frame-stack depth *)
}

val analyzer_disabled : analyzer

val analyzer : ?sample_every:int -> Metrics.t -> machine:string -> analyzer
(** Register (idempotently) the per-machine analyzer instruments in the
    given registry.  [sample_every] defaults to 4096. *)

(** Instruments for the VM interpreter. *)
type vm = {
  v_enabled : bool;
  v_sample_mask : int;
      (** sample when [steps land mask = 0]; period rounded to a power
          of two so the hot loop pays one [land] *)
  v_executions : Metrics.counter;
  v_steps : Metrics.counter;  (** retired instructions *)
  v_faults : Metrics.counter;  (** executions that ended in a fault *)
  v_stack_words : Metrics.histogram;  (** sampled VM stack depth, words *)
}

val vm_disabled : vm

val vm : ?sample_every:int -> Metrics.t -> vm
(** Register the VM instruments.  [sample_every] (default 4096) is
    rounded up to a power of two. *)

val pool : Metrics.t -> Stdx.Pool.probe
(** Register the domain-pool instruments (idempotently, by name) and
    return the probe callback {!Stdx.Pool.set_probe} expects:

    - [pool_tasks_submitted_total] / [pool_tasks_completed_total]
    - [pool_queue_depth_highwater] / [pool_tasks_in_flight_highwater]
    - [pool_parks_total]

    High-water gauges are max-updates and counters only increment, so
    the instruments stay commutative and a quiescent pool's totals are
    deterministic.  The callback runs under the pool lock: it must stay
    non-blocking and never re-enter the pool — atomic metric updates
    qualify. *)

val pool_stats : Metrics.t -> Stdx.Pool.stats -> unit
(** Publish a {!Stdx.Pool.stats} snapshot into the same named
    instruments {!pool} registers (registering them first if needed):
    gauges are max-merged, counters topped up to the pool's lifetime
    totals.  This is the scrape path — serve's /metrics calls it so
    pool gauges need no hand-wiring per caller. *)
