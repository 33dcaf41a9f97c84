type probe_event = [ `Submit | `Start | `Finish | `Park ]
type probe = probe_event -> depth:int -> in_flight:int -> unit

type stats = {
  depth : int;
  in_flight : int;
  submitted : int;
  completed : int;
  steal_attempts : int;
  steals : int;
  parks : int;
}

let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

let capture f x =
  match f x with
  | v -> Ok v
  | exception e -> Error (e, Printexc.get_raw_backtrace ())

let unwrap = function
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

(* Single-shot result box, resolved under its own mutex/condition so an
   [await]er that ran out of work to help with can sleep without
   holding the pool lock. *)
module Future = struct
  type 'a t = {
    mutex : Mutex.t;
    cond : Condition.t;
    mutable state : ('a, exn * Printexc.raw_backtrace) result option;
  }

  let make () =
    { mutex = Mutex.create (); cond = Condition.create (); state = None }

  let resolve fut r =
    Mutex.lock fut.mutex;
    fut.state <- Some r;
    Condition.broadcast fut.cond;
    Mutex.unlock fut.mutex

  let peek fut =
    Mutex.lock fut.mutex;
    let s = fut.state in
    Mutex.unlock fut.mutex;
    s

  (* Block until resolved; used only once helping found nothing
     runnable, i.e. the task is in flight on another domain. *)
  let wait fut =
    Mutex.lock fut.mutex;
    let rec loop () =
      match fut.state with
      | None ->
          Condition.wait fut.cond fut.mutex;
          loop ()
      | Some r -> r
    in
    let r = loop () in
    Mutex.unlock fut.mutex;
    r
end

(* A queued task does its work outside the pool lock and returns its
   publication step (store the result, wake the waiter).  The domain
   that ran it calls that step inside the same critical section that
   retires the task, so no waiter can observe a result while the pool
   still counts its task as in flight. *)
type task = unit -> unit -> unit

type t = {
  mutex : Mutex.t;
  (* signaled when a task is queued or [stop] is set *)
  work : Condition.t;
  queue : task Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  jobs : int;
  (* Every counter is guarded by [mutex] (every transition already
     holds it), and the probe fires inside the same critical section,
     so its depth/in-flight arguments are exact, never torn. *)
  mutable in_flight : int;
  mutable submitted : int;
  mutable completed : int;
  mutable parks : int;
  mutable probe : probe option;
}

let notify t event =
  match t.probe with
  | None -> ()
  | Some f -> f event ~depth:(Queue.length t.queue) ~in_flight:t.in_flight

let enqueue t task =
  Queue.add task t.queue;
  t.submitted <- t.submitted + 1;
  notify t `Submit

(* Run one dequeued task.  Called and returns with [t.mutex] held;
   the task's work runs unlocked.  Tasks are pre-wrapped and never
   raise. *)
let run_locked t (task : task) =
  t.in_flight <- t.in_flight + 1;
  notify t `Start;
  Mutex.unlock t.mutex;
  let publish = task () in
  Mutex.lock t.mutex;
  t.in_flight <- t.in_flight - 1;
  t.completed <- t.completed + 1;
  notify t `Finish;
  publish ()

let worker_loop t =
  Mutex.lock t.mutex;
  let rec loop () =
    if not t.stop then begin
      (match Queue.take_opt t.queue with
      | Some task -> run_locked t task
      | None ->
          t.parks <- t.parks + 1;
          notify t `Park;
          Condition.wait t.work t.mutex);
      loop ()
    end
  in
  loop ();
  Mutex.unlock t.mutex

let create ?(jobs = recommended_jobs ()) () =
  let jobs = max 1 jobs in
  let t =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [];
      jobs;
      in_flight = 0;
      submitted = 0;
      completed = 0;
      parks = 0;
      probe = None;
    }
  in
  if jobs > 1 then
    t.workers <-
      List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.jobs

let set_probe t p =
  Mutex.lock t.mutex;
  t.probe <- p;
  Mutex.unlock t.mutex

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      depth = Queue.length t.queue;
      in_flight = t.in_flight;
      submitted = t.submitted;
      completed = t.completed;
      steal_attempts = 0;
      steals = 0;
      parks = t.parks;
    }
  in
  Mutex.unlock t.mutex;
  s

let check_alive t op =
  if t.stop then invalid_arg (Printf.sprintf "Pool.%s: pool is shut down" op)

(* Run one task inline on the calling domain, with full accounting;
   the outcome comes back captured, never raised. *)
let run_inline t f x =
  let r = ref None in
  Mutex.lock t.mutex;
  t.submitted <- t.submitted + 1;
  notify t `Submit;
  run_locked t (fun () ->
      r := Some (capture f x);
      ignore);
  Mutex.unlock t.mutex;
  Option.get !r

let map_array t f arr =
  check_alive t "map_array";
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.jobs = 1 || n = 1 then
    Array.map (fun x -> unwrap (run_inline t f x)) arr
  else begin
    let results = Array.make n None in
    let remaining = ref n in
    let finished = Condition.create () in
    let task i () =
      let r = capture f arr.(i) in
      fun () ->
        results.(i) <- Some r;
        decr remaining;
        if !remaining = 0 then Condition.broadcast finished
    in
    Mutex.lock t.mutex;
    for i = 0 to n - 1 do
      enqueue t (task i)
    done;
    Condition.broadcast t.work;
    (* The submitting domain helps drain the queue rather than
       blocking — this is what makes nested [map_array] calls from
       inside tasks safe on a narrow pool. *)
    let rec help () =
      if !remaining > 0 then
        match Queue.take_opt t.queue with
        | Some task ->
            run_locked t task;
            help ()
        | None ->
            (* Queue drained but stragglers are in flight on other
               domains: wait for the batch to complete. *)
            while !remaining > 0 do
              Condition.wait finished t.mutex
            done
    in
    help ();
    Mutex.unlock t.mutex;
    (* Re-raise the lowest-indexed failure, if any — deterministic no
       matter which domain hit it first. *)
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt | _ -> ())
      results;
    Array.map (function Some (Ok v) -> v | _ -> assert false) results
  end

let map_list t f l = Array.to_list (map_array t f (Array.of_list l))

type 'a future = 'a Future.t

let async t f =
  check_alive t "async";
  let fut = Future.make () in
  if t.jobs = 1 then Future.resolve fut (run_inline t f ())
  else begin
    Mutex.lock t.mutex;
    enqueue t (fun () ->
        let r = capture f () in
        fun () -> Future.resolve fut r);
    Condition.signal t.work;
    Mutex.unlock t.mutex
  end;
  fut

let poll fut = Option.is_some (Future.peek fut)

let await t fut =
  (* Help: run queued tasks (any tasks — helping is what keeps futures
     awaiting futures deadlock-free) until the future resolves or the
     queue runs dry. *)
  let rec help () =
    match Future.peek fut with
    | Some r -> unwrap r
    | None ->
        Mutex.lock t.mutex;
        let task = Queue.take_opt t.queue in
        Option.iter (run_locked t) task;
        Mutex.unlock t.mutex;
        if Option.is_some task then help ()
        else
          (* Nothing runnable: the task is in flight on another
             domain.  Sleep on the future's own condition. *)
          unwrap (Future.wait fut)
  in
  help ()

let shutdown t =
  Mutex.lock t.mutex;
  let ws = t.workers in
  t.workers <- [];
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join ws

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
