(* Layer probes: one workload's pipeline taken apart into its layer
   calls, each timed on its own, sequentially on the calling domain.
   The execute and analyze stages are run once more for their
   allocation counts, which repeat exactly from run to run. *)

type t = {
  compile_ms : float;  (** Workloads.Registry.compile *)
  program_info_ms : float;  (** Ilp.Program_info.analyze_flat *)
  steps : int;  (** retired instructions = trace entries *)
  exec_ms : float;  (** Vm.Exec.run ~record:false *)
  record_ms : float;  (** Vm.Exec.run, trace recorded *)
  trace_bytes : float;  (** retained Vm.Trace.t *)
  decode_ms : float;  (** Ilp.Analyze.decoder over every entry *)
  configs : int;
  many_ms : float;  (** Ilp.Analyze.run_many over [configs] machines *)
  one_ms : float;  (** Ilp.Analyze.run, one machine *)
  sink_ms : float;  (** Vm.Exec.run ~sink:(Analyze.sink_many [one]) *)
  gc_execute : Measure.gc;  (** record + profile training, as prepared *)
  gc_analyze : Measure.gc;  (** run_many *)
  majors : int;  (** major collections during the timed calls *)
  results : Ilp.Analyze.result list;  (** from run_many *)
}

let base_machine = Ilp.Machine.sp_cd_mf

(* [f]'s GC delta from a collected heap with the major GC held off.
   When a major cycle ends inside a call, the minor-word counter of the
   calling domain jumps by up to 2e5 words whatever the call
   allocates, so counts taken across one would not repeat. *)
let counting f =
  Gc.full_major ();
  let saved = Gc.get () in
  Gc.set { saved with space_overhead = 100_000 };
  Fun.protect ~finally:(fun () -> Gc.set saved) (fun () ->
      let g0 = Measure.gc () in
      let v = f () in
      (v, Measure.gc_delta g0 (Measure.gc ())))

let run ?fuel ~machines (w : Workloads.Registry.t) =
  let fuel = Option.value fuel ~default:w.fuel in
  let flat, compile_ms = Measure.timed (fun () -> Workloads.Registry.compile w) in
  let info, program_info_ms =
    Measure.timed (fun () -> Ilp.Program_info.analyze_flat flat)
  in
  let exec ?sink ~record () = Vm.Exec.run ~fuel ~record ?sink flat in
  let profile =
    Predict.Predictor.Profile.builder ~n_static:info.Ilp.Program_info.n
      ~is_cond:(Ilp.Program_info.is_cond_branch info)
  in
  let outcome, gc_execute =
    counting (fun () ->
        exec ~record:true ~sink:(Predict.Predictor.Profile.sink profile) ())
  in
  let trace = outcome.Vm.Exec.trace in
  let completeness = Vm.Exec.completeness_of outcome in
  let config m =
    Ilp.Analyze.config ~mem_words:Vm.Exec.default_mem_words m
      (Predict.Predictor.Profile.predictor profile)
  in
  let configs = List.map config machines in
  let results, gc_analyze =
    counting (fun () -> Ilp.Analyze.run_many ~completeness configs info trace)
  in
  let majors0 = Measure.major_collections () in
  let _, many_ms =
    Measure.timed (fun () -> Ilp.Analyze.run_many ~completeness configs info trace)
  in
  let one = config base_machine in
  let _, one_ms =
    Measure.timed (fun () -> Ilp.Analyze.run ~completeness one info trace)
  in
  let decode = Ilp.Analyze.decoder one info in
  let _, decode_ms =
    Measure.timed (fun () ->
        let acc = ref 0 in
        Vm.Trace.iter (fun ~pc ~aux -> acc := !acc lxor decode ~pc ~aux) trace;
        ignore (Sys.opaque_identity !acc))
  in
  let _, exec_ms = Measure.timed (fun () -> exec ~record:false ()) in
  let _, record_ms = Measure.timed (fun () -> exec ~record:true ()) in
  let _, sink_ms =
    Measure.timed (fun () ->
        let sink, finish = Ilp.Analyze.sink_many [ one ] info in
        ignore (exec ~record:false ~sink ());
        finish ())
  in
  let majors = Measure.major_collections () - majors0 in
  { compile_ms; program_info_ms; steps = outcome.steps; exec_ms; record_ms;
    trace_bytes = float_of_int (Obj.reachable_words (Obj.repr trace) * 8);
    decode_ms; configs = List.length configs; many_ms; one_ms; sink_ms;
    gc_execute; gc_analyze; majors; results }

(* Per-layer metrics over a list of probes: costs are totals over
   totals, so a long trace weighs by its length. *)
let metrics (ps : t list) =
  let total f = List.fold_left (fun a p -> a +. f p) 0. ps in
  let n = float_of_int (List.length ps) in
  let steps = total (fun p -> float_of_int p.steps) in
  let per_step ms = ms *. 1e6 /. steps in
  let gc_sum f = List.fold_left (fun a p -> Measure.gc_add a (f p)) Measure.gc_zero ps in
  let ge = gc_sum (fun p -> p.gc_execute) and ga = gc_sum (fun p -> p.gc_analyze) in
  let many = total (fun p -> p.many_ms) and one = total (fun p -> p.one_ms) in
  let exec = total (fun p -> p.exec_ms) in
  [ ("codegen.compile_ms", total (fun p -> p.compile_ms) /. n, "ms");
    ("cfg.program_info_ms", total (fun p -> p.program_info_ms) /. n, "ms");
    ("vm.exec_ns_per_step", per_step exec, "ns");
    ("vm.trace_record_ns_per_step", per_step (total (fun p -> p.record_ms) -. exec), "ns");
    ("vm.trace_mb", List.fold_left (fun a p -> max a p.trace_bytes) 0. ps /. 1e6, "MB");
    ("ilp.decode_ns_per_entry", per_step (total (fun p -> p.decode_ms)), "ns");
    ("ilp.apply_ns_per_entry_machine",
     many *. 1e6 /. total (fun p -> float_of_int (p.steps * p.configs)), "ns");
    ("ilp.apply1_ns_per_entry", per_step one, "ns");
    ("ilp.fanout_ratio", many /. one, "ratio");
    ("ilp.sink_ns_per_entry", per_step (total (fun p -> p.sink_ms) -. exec), "ns");
    ("gc.minor_words_per_entry.execute", ge.minor /. steps, "words");
    ("gc.minor_words_per_entry.analyze", ga.minor /. steps, "words");
    ("gc.promoted_words_per_entry.execute", ge.promoted /. steps, "words");
    ("gc.promoted_words_per_entry.analyze", ga.promoted /. steps, "words");
    ("gc.major_collections", total (fun p -> float_of_int p.majors), "count");
    ("probe.entries", steps, "count") ]
