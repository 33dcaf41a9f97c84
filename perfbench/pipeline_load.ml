(* The paper-sweep and one-trace workloads: one request is one
   [Harness.Run.exec] over the seven paper machines, with a
   materialized trace.

   - paper-sweep: all ten workloads, jobs = recommended domains, no
     segmentation.  The pool fans out whole workloads; the analyze
     stage does most of the work.
   - one-trace: gcc alone, jobs = recommended domains, [`Auto]
     segmentation, so segmented decode/stitch and fine-grained pool
     tasks sit on the critical path.

   Inputs are fixed by the registry, so the seed has no effect. *)

type t = {
  workloads : Workloads.Registry.t list;
  segment_steps : Harness.segmenting;
  setups : int;  (** set-up repetitions in a timed run *)
}

let paper_sweep =
  { workloads = Workloads.Registry.all; segment_steps = `Off; setups = 3 }

let one_trace =
  { workloads = [ Workloads.Registry.find "gcc" ]; segment_steps = `Auto;
    setups = 5 }

let jobs () = Stdx.Pool.recommended_jobs ()

let config t =
  Harness.Run.config ~jobs:(jobs ()) ~segment_steps:t.segment_steps
    (Golden.paper_specs ())

let names t = List.map (fun (w : Workloads.Registry.t) -> w.name) t.workloads

(* Counted instructions x machine configs: the simulated work. *)
let work_of_results rs =
  List.fold_left (fun a (r : Ilp.Analyze.result) -> a + r.counted) 0 rs

let work = function
  | Error _ -> 0
  | Ok items ->
    List.fold_left
      (fun a (it : Harness.Run.item) ->
        match it.it_outcome with Ok rs -> a + work_of_results rs | Error _ -> a)
      0 items

let timed ~golden ~seconds ~process_start t =
  let setups =
    Array.init t.setups (fun i ->
        let t0 = if i = 0 then process_start else Measure.now_ns () in
        ignore (Harness.Run.exec (config t) t.workloads);
        Measure.ms_since t0 /. 1000.)
  in
  let cfg = config t in
  let outs = ref [] and lats = ref [] in
  let t0 = Measure.now_ns () in
  while Measure.ms_since t0 < seconds *. 1000. do
    let out, ms = Measure.timed (fun () -> Harness.Run.exec cfg t.workloads) in
    outs := out :: !outs;
    lats := ms :: !lats
  done;
  let lats = Array.of_list (List.rev !lats) in
  let n = Array.length lats in
  let failed =
    List.length
      (List.filter (fun o -> not (Golden.request_ok golden ~expect:(names t) o)) !outs)
  in
  (* One client, identical requests: throughput at the median request,
     so a host stall shows in the tail, not in every figure. *)
  let p50 = Measure.median lats in
  let work_per_request = float_of_int (List.fold_left (fun a o -> a + work o) 0 !outs) /. float_of_int n in
  let report =
    Report.timing ~what:"request" lats
    @ [ Report.peak_rss ();
        Printf.sprintf "setup runs (s): %s"
          (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") setups)));
        Printf.sprintf "golden mismatches or errors: %d of %d requests (error_rate %.4f)"
          failed n (float_of_int failed /. float_of_int (max 1 n)) ]
  in
  { Report.attempted = n; failed;
    metrics =
      [ ("setup_s", Measure.median setups, "s");
        ("sim_mips", work_per_request /. (p50 /. 1000.) /. 1e6, "Minsn/s");
        ("p50_ms", p50, "ms");
        ("rps", 1000. /. p50, "1/s") ];
    report; spans = [] }

(* One request replayed as its layer calls, a span around each; the
   same calls [Run.exec] makes, on a pool of the same width. *)
let replay ~obs ~req t =
  let segmented = t.segment_steps <> `Off in
  let root = Tracer.buffer ~req ~parent:(-1) in
  Tracer.with_span root "request" (fun () ->
      let parent = Tracer.current root in
      Stdx.Pool.with_pool ~jobs:(jobs ()) (fun pool ->
          let task (w : Workloads.Registry.t) =
            let b = Tracer.buffer ~req ~parent in
            let span name f = Tracer.with_span b name f in
            let flat = span "codegen.compile" (fun () -> Workloads.Registry.compile w) in
            let info = span "cfg.program_info" (fun () -> Ilp.Program_info.analyze_flat flat) in
            let profile =
              Predict.Predictor.Profile.builder ~n_static:info.Ilp.Program_info.n
                ~is_cond:(Ilp.Program_info.is_cond_branch info)
            in
            let o =
              span "vm.execute" (fun () ->
                  Vm.Exec.run ~fuel:w.fuel
                    ~sink:(Predict.Predictor.Profile.sink profile) flat)
            in
            let completeness = Vm.Exec.completeness_of o in
            let configs =
              List.map
                (fun m ->
                  Ilp.Analyze.config ~mem_words:Vm.Exec.default_mem_words m
                    (Predict.Predictor.Profile.predictor profile))
                Ilp.Machine.all_paper
            in
            let results, segments =
              if not segmented then
                ( span "ilp.run_many" (fun () ->
                      Ilp.Analyze.run_many ~completeness configs info o.trace),
                  0 )
              else
                let segment_steps =
                  Ilp.Segmented.auto_steps ~trace_len:(Vm.Trace.length o.trace)
                    ~jobs:(Stdx.Pool.jobs pool)
                in
                (* the form the harness uses on a materialized trace *)
                let out =
                  span "ilp.segmented" (fun () ->
                      let sink, finish =
                        Ilp.Segmented.sink ~pool ~obs ~segment_steps configs info
                      in
                      Vm.Trace.feed o.trace sink;
                      finish ~completeness ())
                in
                (out.results, out.segments)
            in
            (w.name, results, segments)
          in
          (* un-segmented, the pool fans out whole workloads; segmented,
             it takes the decode/stitch tasks of each *)
          let out =
            if segmented then List.map task t.workloads
            else Stdx.Pool.map_list pool task t.workloads
          in
          (out, Stdx.Pool.stats pool)))

let traced ~golden ~seconds t =
  ignore (Harness.Run.exec (config t) t.workloads);
  Gc.compact ();
  let probes =
    List.map (fun w -> Probe.run ~machines:Ilp.Machine.all_paper w) t.workloads
  in
  let probe_fails =
    List.fold_left2
      (fun n (w : Workloads.Registry.t) (p : Probe.t) ->
        if Golden.matches golden ~workload:w.name p.results then n else n + 1)
      0 t.workloads probes
  in
  let registry = Obs.Metrics.create () in
  let obs = Obs.Ctx.create ~registry () in
  let cfg = config t in
  let plain = ref [] and traced = ref [] and seg_ms = ref [] in
  let fails = ref probe_fails and works = ref 0 in
  let tasks = ref 0 and steals = ref 0 and attempts = ref 0 and parks = ref 0 in
  let segments = ref 0 and replays = ref 0 in
  let t0 = Measure.now_ns () in
  while !replays = 0 || Measure.ms_since t0 < seconds *. 1000. do
    let out, ms = Measure.timed (fun () -> Harness.Run.exec cfg t.workloads) in
    if not (Golden.request_ok golden ~expect:(names t) out) then incr fails;
    plain := ms :: !plain;
    works := work out;
    let (res, st), ms = Measure.timed (fun () -> replay ~obs ~req:!replays t) in
    incr replays;
    traced := ms :: !traced;
    if List.map (fun (n, _, _) -> n) res <> names t
       || not (List.for_all (fun (n, rs, _) -> Golden.matches golden ~workload:n rs) res)
    then incr fails;
    List.iter (fun (_, _, s) -> segments := !segments + s) res;
    tasks := !tasks + st.Stdx.Pool.submitted;
    steals := !steals + st.steals;
    attempts := !attempts + st.steal_attempts;
    parks := !parks + st.parks
  done;
  let spans = Tracer.spans () in
  List.iter
    (fun (s : Tracer.span) ->
      if s.name = "ilp.segmented" then seg_ms := (Tracer.dur_ns s /. 1e6) :: !seg_ms)
    spans;
  let per_req x = float_of_int x /. float_of_int !replays in
  let plain = Array.of_list !plain and traced = Array.of_list !traced in
  let mips a = float_of_int !works /. (Measure.median a /. 1000.) /. 1e6 in
  let seg_med = if !seg_ms = [] then 0. else Measure.median (Array.of_list !seg_ms) in
  let many_ms = List.fold_left (fun a (p : Probe.t) -> a +. p.many_ms) 0. probes in
  let stitch_ns =
    List.fold_left
      (fun a (s : Obs.Metrics.snap) ->
        match s.value with
        | Histogram h when s.name = "analyze_segment_stitch_wait_ns" -> a + h.sum
        | _ -> a)
      0 (Obs.Metrics.snapshot registry)
  in
  let span_cost = Tracer.span_cost_ns () in
  let spans_per_req = per_req (List.length spans) in
  let metrics =
    Probe.metrics probes
    @ [ ("segmented.ms", seg_med, "ms");
        ("segmented.speedup", (if seg_med > 0. then many_ms /. seg_med else 0.), "x");
        ("segmented.segments", per_req !segments, "count");
        ("segmented.stitch_wait_ms", float_of_int stitch_ns /. 1e6 /. float_of_int !replays, "ms");
        ("pool.tasks", per_req !tasks, "count");
        ("pool.steal_hit_ratio",
         (if !attempts = 0 then 0. else float_of_int !steals /. float_of_int !attempts), "ratio");
        ("pool.parks", per_req !parks, "count");
        ("harness.overhead_ms", Measure.median plain -. Measure.median traced, "ms");
        ("trace.sim_mips_untraced", mips plain, "Minsn/s");
        ("trace.sim_mips_traced", mips traced, "Minsn/s");
        ("trace.overhead_pct", 100. *. (1. -. (mips traced /. mips plain)), "%");
        ("trace.span_cost_pct", 100. *. spans_per_req *. span_cost /. 1e6 /. Measure.median traced, "%") ]
  in
  { Report.attempted = List.length probes + (2 * !replays); failed = !fails;
    metrics;
    report =
      Report.timing ~what:"untraced request" plain
      @ Report.timing ~what:"traced replay" traced
      @ [ Printf.sprintf "%d spans, %.0f ns each to record" (List.length spans) span_cost ];
    spans }
