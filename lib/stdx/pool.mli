(** A small fixed-size domain pool for embarrassingly parallel batches:
    [jobs - 1] worker domains and the submitting domain share one
    central FIFO guarded by a single [Mutex.t]/[Condition.t] pair.

    {e Determinism:} [map_array] returns results in input-index order,
    no matter which domain ran which task or in what order they
    finished.  Parallel callers therefore produce bit-identical output
    to sequential ones whenever the tasks themselves are independent.

    {e Exceptions:} a task that raises never kills a worker and never
    wedges the pool.  The exception (with its backtrace) is captured in
    the task's result slot; after the {e whole} batch has completed,
    [map_array] re-raises the lowest-indexed one in the submitting
    domain.  Callers that need the typed-error discipline wrap each
    task in {!Pipeline_error.guard}, which turns the re-raise into a
    structured [Internal] error.

    {e Inline [jobs = 1]:} no domain is ever spawned and every task
    runs at submit time on the calling domain — the sequential path,
    bit-for-bit, with the probe counters still firing.

    {e Helping:} a submitter blocked on its batch (or an [await]er
    blocked on a future) runs queued tasks itself instead of sleeping,
    so nested [map]s and tasks awaiting other tasks on a narrow pool
    cannot deadlock.

    {e Quiescence:} a task is retired (in-flight count down, completed
    count up) in the same critical section that publishes its result,
    so once [map_array] or [await] returns, {!stats} already counts
    every task it waited for as completed. *)

type probe_event =
  [ `Submit  (** a task was enqueued (or started inline, [jobs = 1]) *)
  | `Start  (** a task was picked up for execution *)
  | `Finish  (** a task completed *)
  | `Park  (** a worker went to sleep on an empty queue *) ]

type probe = probe_event -> depth:int -> in_flight:int -> unit
(** Scheduler-transition callback.  [depth] is the number of queued
    (not yet started) tasks, [in_flight] the number executing, both
    exact: the callback runs under the pool lock.  It must therefore
    be non-blocking and must not re-enter the pool
    ({!Obs.Probe.pool}'s atomic instrument updates qualify). *)

type stats = {
  depth : int;  (** tasks queued, not yet started *)
  in_flight : int;  (** tasks currently executing on some domain *)
  submitted : int;  (** tasks ever enqueued (monotonic) *)
  completed : int;  (** tasks ever finished (monotonic) *)
  steal_attempts : int;
      (** always 0: one shared queue has nothing to steal from.  Kept
          only because the benchmark program reads it. *)
  steals : int;  (** always 0, kept for the same reason *)
  parks : int;  (** worker sleeps on the empty queue (monotonic) *)
}

type t

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], floored at 1.  The default
    for every [--jobs auto] surface. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs] defaults
    to {!recommended_jobs}; values below 1 are clamped to 1).  With
    [jobs = 1] no domain is ever spawned and every task runs inline —
    the sequential path, bit-for-bit. *)

val jobs : t -> int
(** Total parallelism: worker domains plus the submitting domain. *)

val set_probe : t -> probe option -> unit
(** Install (or clear) the scheduler-transition probe.  The inline
    [jobs = 1] path fires it too — submitted/completed totals are
    identical whatever the pool width. *)

val stats : t -> stats
(** An exact snapshot of the pool's depth, in-flight count and
    lifetime totals. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array t f arr] applies [f] to every element, tasks running on
    any of the pool's domains, and returns the results in input order.
    Blocks until the whole batch is done (the caller's domain works on
    the batch too).  If any task raised, re-raises the lowest-indexed
    exception with its original backtrace — after every other task has
    finished, so the pool is quiescent and reusable. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map_array} over a list. *)

type 'a future
(** A single-shot result box for one task submitted with {!async}. *)

val async : t -> (unit -> 'a) -> 'a future
(** [async t f] enqueues [f] on the pool and returns immediately with
    a future for its result.  On a [jobs = 1] pool the task runs
    inline at submit time, so {!await} never blocks.  A task that
    raises never kills a worker: the exception is boxed in the future
    and re-raised by {!await}.  Raises [Invalid_argument] after
    {!shutdown}. *)

val await : t -> 'a future -> 'a
(** [await t fut] returns the future's value, re-raising (with its
    original backtrace) if the task failed.  While the future is
    pending the caller {e helps}: it runs queued tasks exactly like
    [map_array]'s submitting domain, so tasks awaiting other tasks on
    a narrow pool cannot deadlock.  Only when the queue is empty (the
    awaited task is running on another domain) does it sleep on the
    future's own condition variable. *)

val poll : 'a future -> bool
(** [poll fut] is [true] once the future is resolved (value or
    exception).  Never blocks, never helps. *)

val shutdown : t -> unit
(** Stop the workers and join their domains.  Idempotent.  Submitting
    to a pool after [shutdown] raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] over a fresh pool and always shuts it down,
    even when [f] raises. *)
