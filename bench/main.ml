(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation, plus the ablations DESIGN.md calls out and
   Bechamel micro-benchmarks of the pipeline stages.

     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe -- table3        # one experiment
     dune exec bench/main.exe -- --fuel 16000000 table3
     dune exec bench/main.exe -- --jobs 4      # domains for the fan-out
     dune exec bench/main.exe -- --list        # available experiments
     dune exec bench/main.exe -- scaling       # 1/2/4-domain curve

   Each experiment declares which (workload, analysis spec) results it
   needs; the driver unions the needs of every selected experiment and
   then *prefills* the store: each workload is compiled and executed
   exactly once, with all requested machine models and ablation configs
   advanced together over a single pass of its trace
   (Harness.Run.on_prepared).  With --jobs > 1 the prefill fans whole
   workloads out over a domain pool (Stdx.Pool); results are merged
   back by workload index, so the tables are bit-identical for every
   --jobs value.  The trace is dropped as soon as its workload's
   results are in, keeping the live heap small.  Experiments then
   render from the shared store.

   All timing uses the monotonic clock (bechamel's CLOCK_MONOTONIC
   stub), so an NTP step mid-run cannot corrupt the numbers.  A
   machine-readable summary — per-experiment wall time, both the
   analysis work an experiment ran itself and the shared prefill work
   it requested, the prefill phase's parallel speedup, and (for the
   `scaling` experiment) the 1/2/4-domain curve — is written to
   BENCH_results.json.

   Paper-vs-measured commentary lives in EXPERIMENTS.md. *)

(* Monotonic wall clock in seconds. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let machines = Ilp.Machine.all_paper
let machine_names = List.map (fun (m : Ilp.Machine.t) -> m.name) machines

(* ------------------------------------------------------------------ *)
(* Result store: one prepare + one analysis pass per workload, shared
   by every selected experiment. *)

let fuel_override : int option ref = ref None

let jobs_override : int option ref = ref None

let resolved_jobs () =
  match !jobs_override with
  | Some j -> max 1 j
  | None -> Stdx.Pool.recommended_jobs ()

(* Observability: --metrics / --trace-out FILE enable the context; the
   default stays disabled so the baseline bench numbers are untouched.
   Enabled, every prefill task records compile/execute/analyze spans
   into a buffer keyed by the workload's registry index (scheduling-
   independent merge order), every experiment records a root span, and
   BENCH_results.json carries the per-stage timings and per-experiment
   counter deltas. *)
let obs = ref Obs.Ctx.disabled

let trace_out : string option ref = ref None

let metrics_flag = ref false

(* Stable span-buffer index: the workload's position in the registry,
   not its position in whatever subset this run prefills. *)
let workload_index name =
  let rec go i = function
    | [] -> 1000
    | (w : Workloads.Registry.t) :: rest ->
      if w.name = name then i else go (i + 1) rest
  in
  go 0 Workloads.Registry.all

(* Experiment root spans sit above the workload range. *)
let experiment_index i = 2000 + i

(* (workload, spec key) -> analysis result *)
let store : (string * string, Ilp.Analyze.result) Hashtbl.t =
  Hashtbl.create 256

let stats_store : (string, Ilp.Stats.branch_stats) Hashtbl.t =
  Hashtbl.create 16

(* Per-workload termination record for BENCH_results.json: how the one
   execution ended (halted / out_of_fuel / fault), how far it got, and
   what it returned. *)
type termination = {
  m_status : string;
  m_steps : int;
  m_returned : int option;
  m_completeness : string;
}

let term_store : (string, termination) Hashtbl.t = Hashtbl.create 16

(* workload -> specs the selected experiments asked for *)
let needs_by_workload : (string, Harness.spec list ref) Hashtbl.t =
  Hashtbl.create 16

let prepared_done : (string, unit) Hashtbl.t = Hashtbl.create 16

(* Extra per-workload measurements some experiments take while the
   trace is still alive (registered only when selected).  Hooks run
   inside the prefill tasks, i.e. possibly on worker domains and
   concurrently for different workloads — a hook that writes shared
   state must take its own lock. *)
let prep_hooks : (Harness.prepared -> unit) list ref = ref []

let register_needs (w : Workloads.Registry.t) specs =
  let existing =
    match Hashtbl.find_opt needs_by_workload w.name with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.add needs_by_workload w.name l;
      l
  in
  existing := !existing @ specs

let dedup_specs specs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun s ->
      let key = Harness.spec_key s in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    specs

(* The whole shared computation for one workload: one execution, hooks,
   one fan-out pass over everything the selected experiments asked for.
   Pure with respect to the stores — results come back as values so the
   caller (possibly merging a parallel batch) writes the Hashtbls on
   one domain only. *)
type prefilled = {
  pf_name : string;
  pf_stats : Ilp.Stats.branch_stats;
  pf_term : termination;
  pf_results : (string * Ilp.Analyze.result) list;  (* spec key -> result *)
  pf_task_s : float;  (* this task's own wall time *)
}

let prepare_workload (w : Workloads.Registry.t) =
  let t0 = now_s () in
  let span_buf =
    Obs.Ctx.task_buffer !obs ~index:(workload_index w.name) ~label:w.name
  in
  let specs =
    match Hashtbl.find_opt needs_by_workload w.name with
    | Some l -> dedup_specs !l
    | None -> []
  in
  let p =
    Harness.prepare ?fuel:!fuel_override ~obs:!obs ~span_buf
      ~train_values:(Harness.specs_need_values specs) w
  in
  let stats = Harness.branch_stats p in
  let term =
    { m_status = Vm.Exec.status_string p.status;
      m_steps = p.steps;
      m_returned = p.halted;
      m_completeness = Pipeline_error.completeness_tag p.completeness }
  in
  List.iter (fun hook -> hook p) !prep_hooks;
  let results = Harness.Run.on_prepared ~obs:!obs ~span_buf p specs in
  { pf_name = w.name;
    pf_stats = stats;
    pf_term = term;
    pf_results =
      List.map2 (fun s r -> (Harness.spec_key s, r)) specs results;
    pf_task_s = now_s () -. t0 }
  (* p goes out of scope here: the trace is freed *)

let merge_prefilled pf =
  Hashtbl.replace prepared_done pf.pf_name ();
  Hashtbl.replace stats_store pf.pf_name pf.pf_stats;
  Hashtbl.replace term_store pf.pf_name pf.pf_term;
  List.iter
    (fun (key, r) -> Hashtbl.replace store (pf.pf_name, key) r)
    pf.pf_results

(* Fallback for a workload first touched after the prefill phase (an
   experiment run outside the registry's needs declaration). *)
let ensure (w : Workloads.Registry.t) =
  if not (Hashtbl.mem prepared_done w.name) then
    merge_prefilled (prepare_workload w)

(* The parallel phase: every workload any selected experiment declared
   a need for, fanned out over a domain pool, merged in registry order.
   Because each task is the pipeline for one workload (own VM, own
   analysis states) and the merge is by index, the store contents are
   bit-identical to the sequential path for every jobs value. *)
type prefill_timing = {
  pp_jobs : int;
  pp_wall_s : float;
  pp_task_sum_s : float;  (* sum of per-task times: the sequential cost *)
  pp_instructions : int;
}

let prefill_timing : prefill_timing option ref = ref None

let prefill () =
  let ws =
    List.filter
      (fun (w : Workloads.Registry.t) ->
        Hashtbl.mem needs_by_workload w.name
        && not (Hashtbl.mem prepared_done w.name))
      Workloads.Registry.all
  in
  if ws <> [] then begin
    let jobs = resolved_jobs () in
    let before = Harness.Counters.analyzed () in
    let t0 = now_s () in
    let filled =
      if jobs > 1 && List.length ws > 1 then
        Stdx.Pool.with_pool ~jobs (fun pool ->
            Stdx.Pool.map_list pool prepare_workload ws)
      else List.map prepare_workload ws
    in
    let wall = now_s () -. t0 in
    List.iter merge_prefilled filled;
    prefill_timing :=
      Some
        { pp_jobs = jobs;
          pp_wall_s = wall;
          pp_task_sum_s =
            List.fold_left (fun acc pf -> acc +. pf.pf_task_s) 0. filled;
          pp_instructions = Harness.Counters.analyzed () - before }
  end

let get w spec =
  ensure w;
  Hashtbl.find store (w.Workloads.Registry.name, Harness.spec_key spec)

let branch_stats w =
  ensure w;
  Hashtbl.find stats_store w.Workloads.Registry.name

let fnum = Report.Table.fnum

let harmonic_of column rows =
  Stdx.Stats.harmonic_mean (List.map (fun r -> List.nth r column) rows)

(* Common spec sets. *)
let spec7 = List.map (fun m -> Harness.spec m) machines

let spec7_knob ~inline ~unroll =
  List.map (fun m -> Harness.spec ~inline ~unroll m) machines

let sp_segments_spec = Harness.spec ~segments:true Ilp.Machine.sp

let for_all specs = List.map (fun w -> (w, specs)) Workloads.Registry.all

let for_non_numeric specs =
  List.map (fun w -> (w, specs)) Workloads.Registry.non_numeric

(* ------------------------------------------------------------------ *)

let table1 () =
  let rows =
    List.map
      (fun (w : Workloads.Registry.t) ->
        [ w.name; w.lang; w.description ])
      Workloads.Registry.all
  in
  print_string
    (Report.Table.render ~title:"Table 1: Benchmark Programs"
       ~header:[ "Program"; "Language"; "Description" ]
       ~align:[ Left; Left; Left ] rows)

let table2 () =
  let rows =
    List.map
      (fun w ->
        let bs = branch_stats w in
        [ w.Workloads.Registry.name;
          Printf.sprintf "%.2f" bs.rate;
          Printf.sprintf "%.1f" bs.instrs_between ])
      Workloads.Registry.all
  in
  print_string
    (Report.Table.render ~title:"Table 2: Branch Statistics"
       ~header:
         [ "Program"; "Prediction Rate";
           "Dynamic Instructions Between Branches" ]
       ~align:[ Left; Right; Right ] rows)

let parallelism_row ?(inline = true) ?(unroll = true) w =
  List.map
    (fun m ->
      (get w (Harness.spec ~inline ~unroll m)).Ilp.Analyze.parallelism)
    machines

let table3 () =
  let non_numeric =
    List.map
      (fun w -> (w.Workloads.Registry.name, parallelism_row w))
      Workloads.Registry.non_numeric
  in
  let numeric =
    List.map
      (fun w -> (w.Workloads.Registry.name, parallelism_row w))
      Workloads.Registry.numeric
  in
  let hmean =
    List.mapi (fun i _ -> harmonic_of i (List.map snd non_numeric)) machines
  in
  let render_row (name, pars) = name :: List.map fnum pars in
  let rows =
    List.map render_row non_numeric
    @ [ "Harmonic Mean" :: List.map fnum hmean ]
    @ [ [ "-" ] ]
    @ List.map render_row numeric
  in
  print_string
    (Report.Table.render
       ~title:"Table 3: Parallelism for each Machine Model"
       ~header:("Program" :: machine_names)
       ~align:(Left :: List.map (fun _ -> Report.Table.Right) machines)
       rows)

let table4 () =
  let rows =
    List.map
      (fun w ->
        let with_unroll = parallelism_row ~unroll:true w in
        let without = parallelism_row ~unroll:false w in
        let pct =
          List.map2
            (fun a b -> Printf.sprintf "%+.0f" (100. *. (a -. b) /. b))
            with_unroll without
        in
        w.Workloads.Registry.name :: pct)
      Workloads.Registry.all
  in
  print_string
    (Report.Table.render
       ~title:
         "Table 4: Percent Change in Parallelism due to Perfect Loop \
          Unrolling"
       ~header:("Program" :: machine_names)
       ~align:(Left :: List.map (fun _ -> Report.Table.Right) machines)
       rows)

(* Figure 2/3: the worked example.  A reconstruction of the paper's
   flow graph: a loop containing a data-dependent conditional, followed
   by control-independent code.  We print the per-machine schedule of a
   short trace, the analogue of Figure 3. *)
let figure3_source =
  {|
int a[6] = {1, 0, 1, 1, 0, 1};
int out;
int side;

int main(void) {
  int i;
  int x = 0;
  for (i = 0; i < 6; i = i + 1) {
    if (a[i]) x = x + 1;     // node 3: the predicted side
    else side = side + 1;    // node 4: taken on mispredictions
  }
  out = 7;                   // nodes 6,7: control independent of loop
  return x;
}
|}

let figure3 () =
  let p =
    Harness.prepare_source ?fuel:!fuel_override ~name:"figure2"
      figure3_source
  in
  Format.printf
    "Figure 3 (reconstruction): schedules of the Figure-2-style loop@.";
  Format.printf
    "(loop with a data-dependent if, then control-independent code)@.@.";
  let results = Harness.Run.on_prepared p spec7 in
  let rows =
    List.map
      (fun (r : Ilp.Analyze.result) ->
        [ r.machine; string_of_int r.counted;
          string_of_int r.cycles; fnum r.parallelism ])
      results
  in
  print_string
    (Report.Table.render ~header:[ "Machine"; "Instrs"; "Cycles"; "Par" ]
       ~align:[ Left; Right; Right; Right ] rows)

let figure4 () =
  let rows =
    List.map
      (fun w ->
        let get m = (get w (Harness.spec m)).Ilp.Analyze.parallelism in
        ( w.Workloads.Registry.name,
          [ get Ilp.Machine.base; get Ilp.Machine.cd;
            get Ilp.Machine.cd_mf ] ))
      Workloads.Registry.non_numeric
  in
  print_string
    (Report.Chart.grouped_bars
       ~title:"Figure 4: Parallelism with Control Dependence Analysis"
       ~group_names:[ "BASE"; "CD"; "CD-MF" ]
       rows)

let figure5 () =
  let rows =
    List.map
      (fun w ->
        let get m = (get w (Harness.spec m)).Ilp.Analyze.parallelism in
        ( w.Workloads.Registry.name,
          [ get Ilp.Machine.base; get Ilp.Machine.sp;
            get Ilp.Machine.sp_cd; get Ilp.Machine.sp_cd_mf ] ))
      Workloads.Registry.non_numeric
  in
  print_string
    (Report.Chart.grouped_bars
       ~title:"Figure 5: Parallelism with Speculative Execution"
       ~group_names:[ "BASE"; "SP"; "SP-CD"; "SP-CD-MF" ]
       rows)

let sp_segments w = (get w sp_segments_spec).Ilp.Analyze.segments

let figure6 () =
  let curves =
    List.map
      (fun w -> Ilp.Stats.cumulative_distances (sp_segments w))
      Workloads.Registry.non_numeric
  in
  print_string
    (Report.Chart.cdf
       ~title:
         "Figure 6: Cumulative Distribution of Misprediction Distances \
          (one curve per non-numeric program)"
       ~x_label:"misprediction distance"
       curves);
  let all = List.concat_map (fun w ->
      Array.to_list (sp_segments w)) Workloads.Registry.non_numeric
  in
  let under n =
    let total = List.length all in
    let c = List.length
        (List.filter (fun (s : Ilp.Analyze.segment) -> s.length <= n) all)
    in
    100. *. float_of_int c /. float_of_int total
  in
  Format.printf
    "@.%.1f%% of mispredictions occur within a distance of 100 \
     instructions@.(paper: over 80%%); %.1f%% within 1000.@."
    (under 100) (under 1000)

let figure7 () =
  let all =
    Array.concat
      (List.map sp_segments Workloads.Registry.non_numeric)
  in
  let buckets = Ilp.Stats.parallelism_by_distance all in
  let rows =
    List.map
      (fun (b : Ilp.Stats.bucket) ->
        ( Printf.sprintf "%5d-%-5d %7d segs" b.lo b.hi b.count,
          b.mean_parallelism ))
      buckets
  in
  print_string
    (Report.Chart.bars
       ~title:
         "Figure 7: Parallelism vs Misprediction Distance (all non-numeric \
          programs combined; harmonic mean per bucket)"
       rows)

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper (DESIGN.md §7). *)

let window_sizes = [ 32; 128; 512; 2048 ]

let ablation_window_specs =
  List.map
    (fun wsz -> Harness.spec (Ilp.Machine.with_window wsz Ilp.Machine.sp_cd_mf))
    window_sizes
  @ [ Harness.spec Ilp.Machine.sp_cd_mf ]

let ablation_window () =
  let rows =
    List.map
      (fun w ->
        w.Workloads.Registry.name
        :: List.map
             (fun s -> fnum (get w s).Ilp.Analyze.parallelism)
             ablation_window_specs)
      Workloads.Registry.non_numeric
  in
  print_string
    (Report.Table.render
       ~title:"Ablation: SP-CD-MF under a finite scheduling window"
       ~header:
         ("Program"
         :: (List.map (fun w -> Printf.sprintf "w=%d" w) window_sizes
            @ [ "unlimited" ]))
       ~align:(Left :: List.map (fun _ -> Report.Table.Right)
                 (window_sizes @ [ 0 ]))
       rows)

let flow_counts = [ 1; 2; 4; 8 ]

let ablation_flows_specs =
  List.map
    (fun k ->
      Harness.spec (Ilp.Machine.with_flows (Some k) Ilp.Machine.sp_cd))
    flow_counts
  @ [ Harness.spec Ilp.Machine.sp_cd_mf ]

let ablation_flows () =
  let rows =
    List.map
      (fun w ->
        w.Workloads.Registry.name
        :: List.map
             (fun s -> fnum (get w s).Ilp.Analyze.parallelism)
             ablation_flows_specs)
      Workloads.Registry.non_numeric
  in
  print_string
    (Report.Table.render
       ~title:
         "Ablation: k flows of control between SP-CD (k=1) and SP-CD-MF"
       ~header:
         ("Program"
         :: (List.map (fun k -> Printf.sprintf "k=%d" k) flow_counts
            @ [ "unbounded" ]))
       ~align:(Left :: List.map (fun _ -> Report.Table.Right)
                 (flow_counts @ [ 0 ]))
       rows)

let ablation_latency_specs =
  List.map Harness.spec
    [ Ilp.Machine.sp_cd_mf;
      Ilp.Machine.with_latency Ilp.Machine.Realistic Ilp.Machine.sp_cd_mf;
      Ilp.Machine.oracle;
      Ilp.Machine.with_latency Ilp.Machine.Realistic Ilp.Machine.oracle ]

let ablation_latency () =
  let rows =
    List.map
      (fun w ->
        w.Workloads.Registry.name
        :: List.map
             (fun s -> fnum (get w s).Ilp.Analyze.parallelism)
             ablation_latency_specs)
      Workloads.Registry.all
  in
  print_string
    (Report.Table.render
       ~title:"Ablation: unit vs realistic operation latencies"
       ~header:
         [ "Program"; "SP-CD-MF"; "SP-CD-MF/lat"; "ORACLE"; "ORACLE/lat" ]
       ~align:[ Left; Right; Right; Right; Right ]
       rows)

(* Lattice sweep: compose the three post-paper constraint dimensions —
   finite scheduling window, finite fetch rate, value prediction — onto
   SP-CD-MF, one machine per corner of the {window 256, unlimited} x
   {fetch 4, unlimited} x {vp off, on} cube.  Each row label is the
   machine's canonical spec, i.e. exactly what `ilp-limits run -m`
   accepts; the same specs (and the non-numeric harmonic means) land in
   BENCH_results.json.  The vp corners are what pulls [train_values]
   through the prefill: their workloads' one execution also trains the
   last-value profile. *)
let lattice_axes =
  List.concat_map
    (fun window ->
      List.concat_map
        (fun fetch ->
          List.map (fun vp -> (window, fetch, vp)) [ false; true ])
        [ Some 4; None ])
    [ Some 256; None ]

let lattice_machine (window, fetch, vp) =
  Ilp.Machine.sp_cd_mf
  |> (match window with
     | Some n -> Ilp.Machine.with_window n
     | None -> fun m -> m)
  |> Ilp.Machine.with_fetch fetch
  |> Ilp.Machine.with_value_predict vp

let lattice_specs =
  List.map (fun pt -> Harness.spec (lattice_machine pt)) lattice_axes

type lattice_row = {
  lt_spec : string;
  lt_window : int option;
  lt_fetch : int option;
  lt_vp : bool;
  lt_hmean : float;
}

let lattice_rows : lattice_row list ref = ref []

let lattice_sweep () =
  let ws = Workloads.Registry.non_numeric in
  let rows, json =
    List.split
      (List.map2
         (fun ((window, fetch, vp) as pt) s ->
           let m = lattice_machine pt in
           let pars =
             List.map (fun w -> (get w s).Ilp.Analyze.parallelism) ws
           in
           let h = Stdx.Stats.harmonic_mean pars in
           ( m.Ilp.Machine.name :: (List.map fnum pars @ [ fnum h ]),
             { lt_spec = Ilp.Machine.to_spec m; lt_window = window;
               lt_fetch = fetch; lt_vp = vp; lt_hmean = h } ))
         lattice_axes lattice_specs)
  in
  lattice_rows := json;
  print_string
    (Report.Table.render
       ~title:
         "Lattice sweep: SP-CD-MF under composed window / fetch / \
          value-prediction constraints (non-numeric programs)"
       ~header:
         ("Machine"
         :: (List.map (fun w -> w.Workloads.Registry.name) ws @ [ "hmean" ]))
       ~align:
         (Left :: List.map (fun _ -> Report.Table.Right) (ws @ [ List.hd ws ]))
       rows)

(* Predictor accuracy has to be measured while the trace is still
   alive, so this experiment registers a prep hook alongside its spec
   needs.  The analyses themselves still share the one fan-out pass
   (a fresh 2-bit counter table is created inside that pass's state,
   never shared with the measurement run). *)
let predictor_specs =
  [ Harness.spec Ilp.Machine.sp;
    Harness.spec ~predictor:`Btfn Ilp.Machine.sp;
    Harness.spec ~predictor:`Two_bit Ilp.Machine.sp ]

let predictor_rates : (string, float * float * float) Hashtbl.t =
  Hashtbl.create 16

(* Guards [predictor_rates]: the hook runs inside prefill tasks, which
   may execute concurrently on different domains.  The measurement
   itself touches only the task's own prepared trace; only the final
   table write is shared. *)
let predictor_rates_mutex = Mutex.create ()

let measure_predictor_rates (p : Harness.prepared) =
  let is_cond = Ilp.Program_info.is_cond_branch p.info in
  let rate pr = (Predict.Predictor.measure pr ~is_cond p.trace).rate in
  let btfn =
    Predict.Predictor.backward_taken
      ~is_backward:(Ilp.Program_info.branch_backward p.flat)
  in
  let twobit = Predict.Predictor.two_bit ~n_static:p.info.n in
  let rates = ((Harness.branch_stats p).rate, rate btfn, rate twobit) in
  Mutex.lock predictor_rates_mutex;
  Hashtbl.replace predictor_rates p.workload.name rates;
  Mutex.unlock predictor_rates_mutex

let ablation_predictors () =
  let rows =
    List.map
      (fun w ->
        ensure w;
        let profile_rate, btfn_rate, twobit_rate =
          Hashtbl.find predictor_rates w.Workloads.Registry.name
        in
        let pars =
          List.map
            (fun s -> fnum (get w s).Ilp.Analyze.parallelism)
            predictor_specs
        in
        [ w.Workloads.Registry.name;
          Printf.sprintf "%.1f" profile_rate;
          Printf.sprintf "%.1f" btfn_rate;
          Printf.sprintf "%.1f" twobit_rate ]
        @ pars)
      Workloads.Registry.all
  in
  print_string
    (Report.Table.render
       ~title:
         "Ablation: branch predictors (accuracy %, and SP parallelism)"
       ~header:
         [ "Program"; "profile"; "btfn"; "2-bit"; "SP/profile"; "SP/btfn";
           "SP/2-bit" ]
       ~align:[ Left; Right; Right; Right; Right; Right; Right ]
       rows)

let ablation_inline () =
  let rows =
    List.map
      (fun w ->
        let with_i = parallelism_row ~inline:true w in
        let without = parallelism_row ~inline:false w in
        let pct =
          List.map2
            (fun a b -> Printf.sprintf "%+.0f" (100. *. (a -. b) /. b))
            with_i without
        in
        w.Workloads.Registry.name :: pct)
      Workloads.Registry.all
  in
  print_string
    (Report.Table.render
       ~title:
         "Ablation: percent change in parallelism due to perfect inlining"
       ~header:("Program" :: machine_names)
       ~align:(Left :: List.map (fun _ -> Report.Table.Right) machines)
       rows)

(* The guarded ablation recompiles every program with if-conversion, a
   different binary, so the if-converted side cannot share the store's
   execution; the unguarded side can and does. *)
let ablation_guarded () =
  let summarize (r : Ilp.Analyze.result) =
    let mean_dist =
      if Array.length r.segments = 0 then 0.
      else float_of_int r.counted /. float_of_int (Array.length r.segments)
    in
    (r.parallelism, r.mispredicts, mean_dist)
  in
  let rows =
    List.map
      (fun w ->
        let par0, mp0, d0 = summarize (get w sp_segments_spec) in
        let par1, mp1, d1 =
          let p =
            Harness.prepare ?fuel:!fuel_override ~obs:!obs
              ~options:{ Codegen.Compile.if_convert = true } w
          in
          match Harness.Run.on_prepared ~obs:!obs p [ sp_segments_spec ] with
          | [ r ] -> summarize r
          | _ -> assert false
        in
        [ w.Workloads.Registry.name;
          fnum par0; string_of_int mp0; Printf.sprintf "%.1f" d0;
          fnum par1; string_of_int mp1; Printf.sprintf "%.1f" d1 ])
      Workloads.Registry.non_numeric
  in
  print_string
    (Report.Table.render
       ~title:
         "Ablation: guarded instructions (if-conversion to movn), SP \
          machine.  Guarding removes branches, so mispredictions drop \
          and the mean distance between them grows (paper \u{00a7}6)."
       ~header:
         [ "Program"; "SP"; "mispredicts"; "mean dist"; "SP/guarded";
           "mispredicts"; "mean dist" ]
       ~align:[ Left; Right; Right; Right; Right; Right; Right ]
       rows)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the pipeline stages. *)

let microbench () =
  let open Bechamel in
  let w = Workloads.Registry.find "eqntott" in
  let p = Harness.prepare ?fuel:!fuel_override w in
  let predictor = Harness.profile_predictor p in
  let analyze_test (m : Ilp.Machine.t) =
    Test.make ~name:("analyze-" ^ m.name)
      (Staged.stage (fun () ->
           let cfg = Ilp.Analyze.config m predictor in
           ignore (Ilp.Analyze.run cfg p.info p.trace)))
  in
  let fanout_test =
    Test.make ~name:"analyze-all7-one-pass"
      (Staged.stage (fun () ->
           let cfgs =
             List.map
               (fun m -> Ilp.Analyze.config m predictor)
               Ilp.Machine.all_paper
           in
           ignore (Ilp.Analyze.run_many cfgs p.info p.trace)))
  in
  let compile_test =
    Test.make ~name:"compile-eqntott"
      (Staged.stage (fun () ->
           ignore (Codegen.Compile.compile_flat w.source)))
  in
  let cfg_test =
    Test.make ~name:"static-analysis-eqntott"
      (Staged.stage (fun () -> ignore (Cfg.Analysis.analyze p.flat)))
  in
  let vm_test =
    Test.make ~name:"vm-execute-eqntott"
      (Staged.stage (fun () ->
           ignore (Vm.Exec.run ~fuel:w.fuel p.flat)))
  in
  let tests =
    Test.make_grouped ~name:"pipeline"
      [ compile_test; cfg_test; vm_test;
        analyze_test Ilp.Machine.base; analyze_test Ilp.Machine.sp_cd_mf;
        analyze_test Ilp.Machine.oracle; fanout_test ]
  in
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 10) ()
    in
    Benchmark.all cfg instances tests
  in
  let results = benchmark () in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false
         ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock results
  in
  Format.printf "Micro-benchmarks (ns per run, OLS fit):@.";
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Format.printf "  %-28s %12.0f ns@." name est
      | _ -> Format.printf "  %-28s (no estimate)@." name)
    ols

(* ------------------------------------------------------------------ *)
(* Scaling: the whole Table-3 pipeline (all ten workloads, all seven
   machines, streaming) at 1, 2 and 4 domains.  Beyond the timing
   curve, this is the bench-side determinism assertion: every parallel
   run must reproduce the sequential run bit-for-bit — results,
   completeness tags, and the Counters totals — or the process exits
   nonzero.  Kept out of the default experiment set because it
   re-executes every workload per point (deliberately: the point is to
   time the pipeline, not to share the store). *)

type scaling_point = {
  sc_jobs : int;
  sc_wall_s : float;
  sc_identical : bool;  (* results and counter deltas match jobs=1 *)
}

let scaling_points : scaling_point list ref = ref []

let scaling_failed = ref false

let scaling () =
  let ws = Workloads.Registry.all in
  let timed jobs =
    let e0 = Harness.Counters.entries () in
    let s0 = Harness.Counters.state_entries () in
    let x0 = Harness.Counters.executions () in
    let t0 = now_s () in
    let cfg =
      Harness.Run.config ~jobs ?fuel:!fuel_override ~stream:true spec7
    in
    let rs =
      match Harness.Run.exec cfg ws with
      | Ok items ->
        List.map (fun it -> it.Harness.Run.it_outcome) items
      | Error _ -> assert false (* jobs >= 1 by construction *)
    in
    let wall = now_s () -. t0 in
    ( rs,
      wall,
      ( Harness.Counters.entries () - e0,
        Harness.Counters.state_entries () - s0,
        Harness.Counters.executions () - x0 ) )
  in
  let seq, seq_wall, seq_counts = timed 1 in
  scaling_points := [ { sc_jobs = 1; sc_wall_s = seq_wall;
                        sc_identical = true } ];
  List.iter
    (fun jobs ->
      let par, wall, counts = timed jobs in
      (* Structural equality covers every field: parallelism numbers,
         counted/cycles, segments, completeness tags, typed errors. *)
      let identical = par = seq && counts = seq_counts in
      if not identical then begin
        scaling_failed := true;
        Format.printf
          "SCALING FAILURE: --jobs %d diverged from the sequential run@."
          jobs
      end;
      scaling_points :=
        !scaling_points
        @ [ { sc_jobs = jobs; sc_wall_s = wall; sc_identical = identical } ])
    [ 2; 4 ];
  let rows =
    List.map
      (fun p ->
        [ string_of_int p.sc_jobs;
          Printf.sprintf "%.3f" p.sc_wall_s;
          Printf.sprintf "%.2fx" (seq_wall /. p.sc_wall_s);
          (if p.sc_identical then "yes" else "NO") ])
      !scaling_points
  in
  print_string
    (Report.Table.render
       ~title:
         (Printf.sprintf
            "Scaling: full streaming pipeline, %d workloads x %d machines \
             (%d domains available)"
            (List.length ws) (List.length machines)
            (Stdx.Pool.recommended_jobs ()))
       ~header:[ "jobs"; "wall s"; "speedup vs seq"; "identical" ]
       ~align:[ Right; Right; Right; Left ] rows)

(* ------------------------------------------------------------------ *)
(* Segment-scaling: intra-trace parallelism on ONE workload.  The
   `scaling` experiment above parallelizes across workloads, which a
   single-workload run cannot use; this one shards gcc's trace into
   segments (DESIGN.md §15) and runs the same seven-machine sweep at
   1, 2 and 4 domains.  Like `scaling` it doubles as a determinism
   assertion: every segmented point must reproduce the un-segmented
   sequential run bit-for-bit — results, completeness tags, counter
   deltas — or the process exits nonzero.  Wall times are honest: on a
   machine without idle cores the speedup column will show < 1 (the
   decode/stitch split adds work); the column exists to be read, not
   to flatter. *)

(* stride policy for the segmented points; --segment-steps overrides *)
let segment_override : Harness.segmenting ref = ref `Auto

type segment_point = {
  sg_jobs : int;
  sg_domains : int;  (* domains that actually hosted decode/stitch work *)
  sg_segments : int;  (* pipeline_segments_total delta for this point *)
  sg_wall_s : float;
  sg_identical : bool;  (* results and counter deltas match jobs=1 *)
}

let segment_points : segment_point list ref = ref []

(* wall of the un-segmented sequential reference run — the denominator
   of every honest speedup figure this experiment reports *)
let segment_seq_wall = ref 0.

let segment_failed = ref false

let segment_scaling () =
  let w = Workloads.Registry.find "gcc" in
  let timed ~jobs ~segmenting =
    let e0 = Harness.Counters.entries () in
    let s0 = Harness.Counters.state_entries () in
    let x0 = Harness.Counters.executions () in
    let g0 = Harness.Counters.segments () in
    let t0 = now_s () in
    let cfg =
      Harness.Run.config ~jobs ?fuel:!fuel_override ~stream:true
        ~segment_steps:segmenting spec7
    in
    let rs =
      match Harness.Run.exec cfg [ w ] with
      | Ok items -> List.map (fun it -> it.Harness.Run.it_outcome) items
      | Error _ -> assert false (* jobs >= 1 by construction *)
    in
    let wall = now_s () -. t0 in
    ( rs,
      wall,
      ( Harness.Counters.entries () - e0,
        Harness.Counters.state_entries () - s0,
        Harness.Counters.executions () - x0 ),
      Harness.Counters.segments () - g0 )
  in
  (* The reference: the ordinary un-segmented sequential pipeline. *)
  let seq, seq_wall, seq_counts, _ = timed ~jobs:1 ~segmenting:`Off in
  segment_seq_wall := seq_wall;
  let points =
    List.sort_uniq compare [ 1; 2; 4; resolved_jobs () ]
  in
  segment_points := [];
  List.iter
    (fun jobs ->
      let par, wall, counts, segs =
        timed ~jobs ~segmenting:!segment_override
      in
      (* Structural equality covers every result field; the counter
         tuple (entries, state entries, executions) excludes the
         segment counter, which only the segmented runs advance. *)
      let identical = par = seq && counts = seq_counts in
      if not identical then begin
        segment_failed := true;
        Format.printf
          "SEGMENT-SCALING FAILURE: --jobs %d segmented run diverged \
           from the sequential run@."
          jobs
      end;
      (* Honest utilization: one workload offers [max specs segments]
         concurrent tasks (decode per segment, stitch per config), so
         more domains than that stay idle. *)
      let domains =
        min jobs (max (List.length spec7) (max 1 segs))
      in
      segment_points :=
        !segment_points
        @ [ { sg_jobs = jobs; sg_domains = domains; sg_segments = segs;
              sg_wall_s = wall; sg_identical = identical } ])
    points;
  let rows =
    List.map
      (fun q ->
        [ string_of_int q.sg_jobs;
          string_of_int q.sg_domains;
          string_of_int q.sg_segments;
          Printf.sprintf "%.3f" q.sg_wall_s;
          Printf.sprintf "%.2fx" (seq_wall /. q.sg_wall_s);
          (if q.sg_identical then "yes" else "NO") ])
      !segment_points
  in
  print_string
    (Report.Table.render
       ~title:
         (Printf.sprintf
            "Segment scaling: gcc x %d machines, intra-trace sharding \
             (seq baseline %.3f s, %d domains available)"
            (List.length machines) seq_wall
            (Stdx.Pool.recommended_jobs ()))
       ~header:
         [ "jobs"; "domains used"; "segments"; "wall s"; "speedup vs seq";
           "identical" ]
       ~align:[ Right; Right; Right; Right; Right; Left ] rows)

(* ------------------------------------------------------------------ *)
(* Static vs dynamic: the static estimator (`Cfg.Estimate` compiled by
   `Ilp.Static_bound`, no execution) must dominate the measured
   parallelism for every workload x paper machine.  This is the
   bench-side soundness assertion for the whole static layer: any cell
   where measured > bound fails the run with a nonzero exit. *)

type static_row = {
  sb_workload : string;
  sb_spec : string;
  sb_bound : float;  (* infinity = statically unbounded *)
  sb_measured : float;
  sb_sound : bool;
}

let static_rows : static_row list ref = ref []
let static_failed = ref false

let static_vs_dynamic () =
  let rows =
    List.map
      (fun (w : Workloads.Registry.t) ->
        let est =
          match Harness.estimate ~machines w with
          | Ok e -> e
          | Error e -> failwith (Pipeline_error.to_string e)
        in
        let cells =
          List.map2
            (fun spec (b : Ilp.Static_bound.t) ->
              let r = get w spec in
              let measured = r.Ilp.Analyze.parallelism in
              let sound = measured <= b.bound +. 1e-9 in
              static_rows :=
                { sb_workload = w.Workloads.Registry.name;
                  sb_spec = b.spec;
                  sb_bound = b.bound;
                  sb_measured = measured;
                  sb_sound = sound }
                :: !static_rows;
              if not sound then begin
                static_failed := true;
                Printf.sprintf "%s > %s !" (fnum measured)
                  (Ilp.Static_bound.value_to_string b.bound)
              end
              else
                Printf.sprintf "%s / %s" (fnum measured)
                  (Ilp.Static_bound.value_to_string b.bound))
            spec7 est.Harness.e_bounds
        in
        w.Workloads.Registry.name :: cells)
      Workloads.Registry.all
  in
  static_rows := List.rev !static_rows;
  print_string
    (Report.Table.render
       ~title:
         "Static vs dynamic: measured parallelism / static bound (sound \
          iff measured <= bound; `unbounded` = no static limit)"
       ~header:("Program" :: machine_names)
       ~align:(Left :: List.map (fun _ -> Report.Table.Right) machines)
       rows);
  if !static_failed then
    Format.printf
      "STATIC BOUND VIOLATION: a measured parallelism exceeded its static \
       bound (see ! cells above)@."

(* ------------------------------------------------------------------ *)
(* Serve soak: an in-process `ilp-limits serve` daemon under sustained
   mixed load — healthy analyses (several workloads, cache hits and
   misses), injected faults, millisecond deadlines, quota violations,
   unknown names — fired from concurrent client threads through the
   retrying client, with a small queue so backpressure actually sheds.
   The robustness assertions (any violation exits the bench nonzero):
   every request draws exactly one well-typed response, no client ever
   sees an I/O failure or malformed reply, the sampled queue depth
   never exceeds the configured bound, and the server drains cleanly
   at the end.  p50/p99 latency of the healthy requests, the shed
   rate, and the cache split land in BENCH_results.json. *)

type serve_soak = {
  sv_requests : int;
  sv_ok : int;
  sv_typed_errors : int;
  sv_shed : int;  (* server-side count of requests shed at the queue *)
  sv_retries : int;  (* extra client attempts beyond the first *)
  sv_p50_ms : float;
  sv_p99_ms : float;
  sv_max_queue_depth : int;  (* sampled; must stay <= the limit *)
  sv_queue_limit : int;
  sv_cache_hits : int;
  sv_cache_misses : int;
  sv_jobs : int;
  sv_wall_s : float;
}

let serve_soak_result : serve_soak option ref = ref None

let serve_failed = ref false

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let soak_stat json name =
  match Option.bind (Serve.Jsonx.member name json) Serve.Jsonx.to_int with
  | Some v -> v
  | None -> 0

let serve_soak () =
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ilp-soak-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let jobs = max 2 (resolved_jobs ()) in
  (* 12 client threads against a queue of 4: more outstanding work than
     the queue and pool can hold, so the shed path genuinely fires and
     the retrying client has to absorb it. *)
  let queue_limit = 4 in
  let cfg =
    Serve.Server.config ~jobs ~queue_limit ~cache_capacity:16
      ~max_fuel:10_000_000 ~retry_after_ms:5
      ~registry:(Obs.Metrics.create ()) ~socket_path ()
  in
  match Serve.Server.start cfg with
  | Error e ->
    serve_failed := true;
    Format.printf "serve-soak: server failed to start: %s@." e
  | Ok server ->
    let t0 = now_s () in
    let addr = Serve.Client.Unix_sock socket_path in
    let n_threads = 12 and per_thread = 45 in
    let total = n_threads * per_thread in
    let ok = Atomic.make 0
    and typed = Atomic.make 0
    and malformed = Atomic.make 0
    and io_failed = Atomic.make 0
    and retries = Atomic.make 0 in
    let lat_mutex = Mutex.create () in
    let latencies = ref [] in
    let healthy =
      [| "eqntott"; "awk"; "ccom"; "latex"; "irsim"; "espresso" |]
    in
    (* Request r's shape is a pure function of r, so the soak replays
       exactly; r mod 10 picks the mix (6 healthy : 1 injected :
       1 deadline : 1 over-quota : 1 unknown). *)
    let payload_of r =
      let open Serve.Protocol in
      match r mod 10 with
      | 6 ->
        analyze ~workload:"awk" ~machines:[ "sp-cd-mf" ] ~fuel:200_000
          ~inject:("bit-flip", r) ()
      | 7 ->
        analyze ~workload:"gcc" ~machines:[ "sp-cd-mf" ] ~fuel:400_000
          ~deadline_ms:1 ()
      | 8 -> analyze ~workload:"eqntott" ~fuel:10_000_001 ()
      | 9 -> analyze ~workload:"no-such-program" ()
      | k ->
        analyze
          ~workload:healthy.((r / 10 + k) mod Array.length healthy)
          ~machines:[ "sp-cd-mf" ] ~fuel:200_000 ()
    in
    let worker tid () =
      for i = 0 to per_thread - 1 do
        let r = (tid * per_thread) + i in
        let a = payload_of r in
        let make_payload ~id = Serve.Protocol.analyze_request ~id a in
        let q0 = now_s () in
        match
          Serve.Client.call_retry ~attempts:8 ~base_ms:5 ~seed:r addr
            ~make_payload
        with
        | Error _ -> Atomic.incr io_failed
        | Ok { o_response; o_attempts } ->
          ignore (Atomic.fetch_and_add retries (o_attempts - 1));
          if o_response.Serve.Protocol.r_ok then begin
            Atomic.incr ok;
            if r mod 10 < 6 then begin
              let ms = (now_s () -. q0) *. 1000. in
              Mutex.lock lat_mutex;
              latencies := ms :: !latencies;
              Mutex.unlock lat_mutex
            end
          end
          else if o_response.Serve.Protocol.r_error_cause <> None then
            Atomic.incr typed
          else Atomic.incr malformed
      done
    in
    (* A sampler thread scrapes stats while the load runs: the highest
       queue depth it ever sees is the bounded-backpressure witness. *)
    let soak_done = Atomic.make false in
    let max_depth = Atomic.make 0 in
    let rec raise_to a v =
      let cur = Atomic.get a in
      if v > cur && not (Atomic.compare_and_set a cur v) then raise_to a v
    in
    let sampler () =
      while not (Atomic.get soak_done) do
        (match Serve.Client.connect addr with
        | Error _ -> ()
        | Ok conn ->
          (match Serve.Client.call conn (Serve.Protocol.stats_request ~id:1)
           with
          | Ok json -> raise_to max_depth (soak_stat json "queue_depth")
          | Error _ -> ());
          Serve.Client.close conn);
        Unix.sleepf 0.004
      done
    in
    let sampler_t = Thread.create sampler () in
    let workers = List.init n_threads (fun tid -> Thread.create (worker tid) ()) in
    List.iter Thread.join workers;
    Atomic.set soak_done true;
    Thread.join sampler_t;
    (* Final scrape before the server goes away. *)
    let shed, cache_hits, cache_misses, requests =
      match Serve.Client.connect addr with
      | Error _ -> (0, 0, 0, 0)
      | Ok conn ->
        let r =
          match
            Serve.Client.call conn (Serve.Protocol.stats_request ~id:1)
          with
          | Ok json ->
            ( soak_stat json "shed",
              soak_stat json "cache_hits",
              soak_stat json "cache_misses",
              soak_stat json "requests" )
          | Error _ -> (0, 0, 0, 0)
        in
        Serve.Client.close conn;
        r
    in
    Serve.Server.stop server;
    let wall = now_s () -. t0 in
    let lats = Array.of_list !latencies in
    Array.sort compare lats;
    let soak =
      { sv_requests = total;
        sv_ok = Atomic.get ok;
        sv_typed_errors = Atomic.get typed;
        sv_shed = shed;
        sv_retries = Atomic.get retries;
        sv_p50_ms = percentile lats 0.50;
        sv_p99_ms = percentile lats 0.99;
        sv_max_queue_depth = Atomic.get max_depth;
        sv_queue_limit = queue_limit;
        sv_cache_hits = cache_hits;
        sv_cache_misses = cache_misses;
        sv_jobs = jobs;
        sv_wall_s = wall }
    in
    serve_soak_result := Some soak;
    let violations = ref [] in
    if Atomic.get io_failed > 0 then
      violations :=
        Printf.sprintf "%d client I/O failures" (Atomic.get io_failed)
        :: !violations;
    if Atomic.get malformed > 0 then
      violations :=
        Printf.sprintf "%d untyped error responses" (Atomic.get malformed)
        :: !violations;
    if soak.sv_ok + soak.sv_typed_errors <> total then
      violations :=
        Printf.sprintf "%d of %d requests unanswered"
          (total - soak.sv_ok - soak.sv_typed_errors)
          total
        :: !violations;
    if soak.sv_max_queue_depth > queue_limit then
      violations :=
        Printf.sprintf "queue depth %d exceeded limit %d"
          soak.sv_max_queue_depth queue_limit
        :: !violations;
    if !violations <> [] then begin
      serve_failed := true;
      List.iter
        (fun v -> Format.printf "SERVE SOAK VIOLATION: %s@." v)
        !violations
    end;
    print_string
      (Report.Table.render
         ~title:
           (Printf.sprintf
              "Serve soak: %d mixed requests, %d client threads, jobs=%d, \
               queue limit %d (server saw %d requests incl. stats scrapes)"
              total n_threads jobs queue_limit requests)
         ~header:[ "measure"; "value" ]
         ~align:[ Left; Right ]
         [ [ "ok responses"; string_of_int soak.sv_ok ];
           [ "typed errors"; string_of_int soak.sv_typed_errors ];
           [ "shed at the queue"; string_of_int soak.sv_shed ];
           [ "client retries"; string_of_int soak.sv_retries ];
           [ "healthy p50"; Printf.sprintf "%.1f ms" soak.sv_p50_ms ];
           [ "healthy p99"; Printf.sprintf "%.1f ms" soak.sv_p99_ms ];
           [ "max queue depth seen";
             string_of_int soak.sv_max_queue_depth ];
           [ "cache hits / misses";
             Printf.sprintf "%d / %d" cache_hits cache_misses ];
           [ "wall"; Printf.sprintf "%.2f s" wall ] ])

(* ------------------------------------------------------------------ *)
(* Experiment registry: each entry declares the (workload, spec)
   results it reads, so the driver can compute the union before any
   workload is prepared. *)

type experiment = {
  name : string;
  needs : unit -> (Workloads.Registry.t * Harness.spec list) list;
  hook : (Harness.prepared -> unit) option;
  run : unit -> unit;
}

let exp ?hook ?(needs = fun () -> []) name run = { name; needs; hook; run }

let spec7_all_knobs ~unroll = spec7_knob ~inline:true ~unroll

let experiments =
  [ exp "table1" table1;
    exp "table2" ~needs:(fun () -> for_all []) table2;
    exp "table3" ~needs:(fun () -> for_all spec7) table3;
    exp "table4"
      ~needs:(fun () ->
        for_all (spec7_all_knobs ~unroll:true @ spec7_all_knobs ~unroll:false))
      table4;
    exp "figure3" figure3;
    exp "figure4"
      ~needs:(fun () ->
        for_non_numeric
          (List.map Harness.spec
             [ Ilp.Machine.base; Ilp.Machine.cd; Ilp.Machine.cd_mf ]))
      figure4;
    exp "figure5"
      ~needs:(fun () ->
        for_non_numeric
          (List.map Harness.spec
             [ Ilp.Machine.base; Ilp.Machine.sp; Ilp.Machine.sp_cd;
               Ilp.Machine.sp_cd_mf ]))
      figure5;
    exp "figure6" ~needs:(fun () -> for_non_numeric [ sp_segments_spec ])
      figure6;
    exp "figure7" ~needs:(fun () -> for_non_numeric [ sp_segments_spec ])
      figure7;
    exp "ablation-window"
      ~needs:(fun () -> for_non_numeric ablation_window_specs)
      ablation_window;
    exp "ablation-flows"
      ~needs:(fun () -> for_non_numeric ablation_flows_specs)
      ablation_flows;
    exp "ablation-latency"
      ~needs:(fun () -> for_all ablation_latency_specs)
      ablation_latency;
    exp "lattice-sweep"
      ~needs:(fun () -> for_non_numeric lattice_specs)
      lattice_sweep;
    exp "ablation-predictors" ~hook:measure_predictor_rates
      ~needs:(fun () -> for_all predictor_specs)
      ablation_predictors;
    exp "ablation-inline"
      ~needs:(fun () ->
        for_all (spec7_knob ~inline:true ~unroll:true
                @ spec7_knob ~inline:false ~unroll:true))
      ablation_inline;
    exp "ablation-guarded"
      ~needs:(fun () -> for_non_numeric [ sp_segments_spec ])
      ablation_guarded;
    exp "static-vs-dynamic" ~needs:(fun () -> for_all spec7)
      static_vs_dynamic;
    exp "serve-soak" serve_soak;
    exp "microbench" microbench;
    exp "scaling" scaling;
    exp "segment-scaling" segment_scaling ]

(* The scaling experiments re-execute workloads per point, so they only
   run when asked for by name. *)
let default_experiments =
  List.filter
    (fun e -> e.name <> "scaling" && e.name <> "segment-scaling")
    experiments

(* ------------------------------------------------------------------ *)
(* Driver: union the needs, run each experiment timed, dump JSON. *)

type timing = {
  t_name : string;
  wall_s : float;
  instructions : int;
  (** trace entries × machine states this experiment ran itself, beyond
      the shared prefill (own prepares: figure3, ablation-guarded,
      microbench, scaling) *)
  requested : int;
  (** this experiment's share of the prefill: entries × deduped specs
      it declared needs for — nonzero for every table/figure that
      renders from the store, which is what makes the per-experiment
      rows meaningful instead of charging all shared work to whichever
      experiment ran first *)
  t_span_ns : int64 option;
  (** monotonic-clock duration of the experiment's root span (only when
      observability is on) *)
  t_metric_deltas : (string * int) list;
  (** per-counter increase across this experiment's run (only when
      observability is on; zero deltas dropped) *)
}

(* Schema guard: every key BENCH_results.json can contain must appear
   in the schema table of DESIGN.md §10.  Any attempt to emit an
   undocumented key exits nonzero, so schema drift is caught at bench
   time rather than by a downstream consumer.  Open-ended maps (metric
   names) are emitted as {name, value} arrays precisely so no dynamic
   string ever becomes a key. *)
let schema_version = 2

let documented_keys =
  [ "schema_version"; "fuel_override"; "jobs"; "domains_recommended";
    "observability";
    "seed_baseline"; "table3_wall_s";
    "hot_loop_baseline"; "run_sweep_2m_wall_s"; "run_sweep_2m_tuned_wall_s";
    "analysis_phase"; "domains_used"; "wall_s"; "task_wall_sum_s";
    "overlap_parallelism"; "instructions_analyzed";
    "scaling"; "speedup_vs_seq"; "identical_to_seq";
    "segment_scaling"; "segments_total"; "segment_steps";
    "totals"; "vm_executions"; "trace_passes"; "trace_entries_scanned";
    "workloads"; "name"; "status"; "steps"; "returned"; "completeness";
    "stages"; "compile_ns"; "execute_ns"; "analyze_ns";
    "experiments"; "instructions_requested"; "instructions_per_s";
    "span_ns"; "metrics"; "value";
    "lattice"; "spec"; "window"; "fetch"; "value_predict";
    "parallelism_hmean";
    "static_bounds"; "bound"; "measured"; "sound";
    "serve_soak"; "requests"; "ok"; "typed_errors"; "shed"; "shed_rate";
    "retries"; "p50_ms"; "p99_ms"; "max_queue_depth"; "queue_limit";
    "cache_hits"; "cache_misses" ]

let key k =
  if not (List.mem k documented_keys) then begin
    Printf.eprintf
      "BENCH_results.json schema violation: key %S is not documented in \
       DESIGN.md\n"
      k;
    exit 1
  end;
  "\"" ^ k ^ "\""

(* Per-workload stage durations, read back from the context's merged
   span stream (the spans {!prepare_workload} recorded). *)
let stage_durations name =
  let spans = Obs.Ctx.spans !obs in
  let dur stage =
    Array.fold_left
      (fun acc (s : Obs.Span.span) ->
        match acc with
        | Some _ -> acc
        | None ->
          if s.sp_workload = name && s.sp_stage = stage then
            Some (Obs.Span.dur_ns s)
          else None)
      None spans
  in
  match (dur "compile", dur "execute", dur "analyze") with
  | Some c, Some e, Some a -> Some (c, e, a)
  | _ -> None

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path timings =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  %s: %d,\n" (key "schema_version") schema_version;
  p "  %s: %s,\n" (key "fuel_override")
    (match !fuel_override with Some f -> string_of_int f | None -> "null");
  p "  %s: %d,\n" (key "jobs") (resolved_jobs ());
  p "  %s: %d,\n" (key "domains_recommended") (Stdx.Pool.recommended_jobs ());
  p "  %s: %b,\n" (key "observability") (Obs.Ctx.enabled !obs);
  (* Pre-streaming-pipeline reference point, measured on the seed tree
     (trace re-scanned per machine, workloads re-executed per table):
     `table3` alone took ~58 s wall on the same hardware. *)
  p "  %s: { %s: 58.0 },\n" (key "seed_baseline") (key "table3_wall_s");
  (* Hot-loop tuning reference point (same hardware, same commit range):
     `ilp-limits run --fuel 2000000` (10 workloads x 7 machines,
     includes both VM executions) measured before/after the Analyze
     step rewrite — median of repeated runs 3.80 s -> 3.47 s, best
     3.77 s -> 3.23 s. *)
  p "  %s: { %s: 3.80, %s: 3.47 },\n" (key "hot_loop_baseline")
    (key "run_sweep_2m_wall_s")
    (key "run_sweep_2m_tuned_wall_s");
  (match !prefill_timing with
  | Some pf ->
    (* task_wall_sum_s / wall_s measures how much task time overlapped,
       not true speedup: on a timeshared core each task's wall time
       stretches, so the ratio approaches [jobs] even without extra
       cores.  The genuine sequential-vs-parallel comparison is the
       `scaling` experiment's curve below. *)
    p "  %s: { %s: %d, %s: %d, %s: %.3f, %s: %.3f, %s: %.2f, %s: %d },\n"
      (key "analysis_phase") (key "jobs") pf.pp_jobs (key "domains_used")
      pf.pp_jobs (key "wall_s") pf.pp_wall_s (key "task_wall_sum_s")
      pf.pp_task_sum_s
      (key "overlap_parallelism")
      (if pf.pp_wall_s > 0. then pf.pp_task_sum_s /. pf.pp_wall_s else 1.)
      (key "instructions_analyzed")
      pf.pp_instructions
  | None -> ());
  (match !scaling_points with
  | [] -> ()
  | ps ->
    let seq_wall =
      match List.find_opt (fun q -> q.sc_jobs = 1) ps with
      | Some q -> q.sc_wall_s
      | None -> 0.
    in
    p "  %s: [\n" (key "scaling");
    List.iteri
      (fun i q ->
        p "    { %s: %d, %s: %d, %s: %.3f, %s: %.2f, %s: %b }%s\n"
          (key "jobs") q.sc_jobs (key "domains_used") q.sc_jobs
          (key "wall_s") q.sc_wall_s
          (key "speedup_vs_seq")
          (if q.sc_wall_s > 0. then seq_wall /. q.sc_wall_s else 1.)
          (key "identical_to_seq") q.sc_identical
          (if i = List.length ps - 1 then "" else ","))
      ps;
    p "  ],\n");
  (match !segment_points with
  | [] -> ()
  | ps ->
    (* denominator: the un-segmented sequential reference run *)
    let seq_wall = !segment_seq_wall in
    p "  %s: [\n" (key "segment_scaling");
    List.iteri
      (fun i q ->
        p
          "    { %s: %d, %s: %d, %s: %d, %s: %s, %s: %.3f, %s: %.2f, \
           %s: %b }%s\n"
          (key "jobs") q.sg_jobs (key "domains_used") q.sg_domains
          (key "segments_total") q.sg_segments
          (key "segment_steps")
          (match !segment_override with
          | `Auto -> "\"auto\""
          | `Steps n -> string_of_int n
          | `Off -> "\"off\"")
          (key "wall_s") q.sg_wall_s
          (key "speedup_vs_seq")
          (if q.sg_wall_s > 0. then seq_wall /. q.sg_wall_s else 1.)
          (key "identical_to_seq") q.sg_identical
          (if i = List.length ps - 1 then "" else ","))
      ps;
    p "  ],\n");
  (match !lattice_rows with
  | [] -> ()
  | rows ->
    let opt = function Some n -> string_of_int n | None -> "null" in
    p "  %s: [\n" (key "lattice");
    List.iteri
      (fun i r ->
        p "    { %s: \"%s\", %s: %s, %s: %s, %s: %b, %s: %.4f }%s\n"
          (key "spec") (json_escape r.lt_spec)
          (key "window") (opt r.lt_window)
          (key "fetch") (opt r.lt_fetch)
          (key "value_predict") r.lt_vp
          (key "parallelism_hmean") r.lt_hmean
          (if i = List.length rows - 1 then "" else ","))
      rows;
    p "  ],\n");
  (match !static_rows with
  | [] -> ()
  | rows ->
    p "  %s: [\n" (key "static_bounds");
    List.iteri
      (fun i r ->
        p "    { %s: \"%s\", %s: \"%s\", %s: %s, %s: %.4f, %s: %b }%s\n"
          (key "name") (json_escape r.sb_workload)
          (key "spec") (json_escape r.sb_spec)
          (key "bound")
          (if r.sb_bound = infinity then "null"
           else Printf.sprintf "%.4f" r.sb_bound)
          (key "measured") r.sb_measured (key "sound") r.sb_sound
          (if i = List.length rows - 1 then "" else ","))
      rows;
    p "  ],\n");
  (match !serve_soak_result with
  | None -> ()
  | Some s ->
    p "  %s: {\n" (key "serve_soak");
    p "    %s: %d, %s: %d, %s: %d, %s: %d,\n" (key "requests")
      s.sv_requests (key "ok") s.sv_ok (key "typed_errors")
      s.sv_typed_errors (key "shed") s.sv_shed;
    (* shed / every analyze submission (first tries + retries): the
       fraction of attempts the full queue turned away *)
    p "    %s: %.4f, %s: %d,\n" (key "shed_rate")
      (if s.sv_requests + s.sv_retries > 0 then
         float_of_int s.sv_shed
         /. float_of_int (s.sv_requests + s.sv_retries)
       else 0.)
      (key "retries") s.sv_retries;
    p "    %s: %.3f, %s: %.3f,\n" (key "p50_ms") s.sv_p50_ms (key "p99_ms")
      s.sv_p99_ms;
    p "    %s: %d, %s: %d,\n" (key "max_queue_depth") s.sv_max_queue_depth
      (key "queue_limit") s.sv_queue_limit;
    p "    %s: %d, %s: %d,\n" (key "cache_hits") s.sv_cache_hits
      (key "cache_misses") s.sv_cache_misses;
    p "    %s: %d, %s: %.3f\n" (key "jobs") s.sv_jobs (key "wall_s")
      s.sv_wall_s;
    p "  },\n");
  p "  %s: {\n" (key "totals");
  p "    %s: %d,\n" (key "vm_executions") (Harness.Counters.executions ());
  p "    %s: %d,\n" (key "trace_passes") (Harness.Counters.passes ());
  p "    %s: %d,\n" (key "trace_entries_scanned") (Harness.Counters.entries ());
  p "    %s: %d\n" (key "instructions_analyzed") (Harness.Counters.analyzed ());
  p "  },\n";
  let terms =
    List.sort compare
      (Hashtbl.fold (fun name t acc -> (name, t) :: acc) term_store [])
  in
  p "  %s: [\n" (key "workloads");
  List.iteri
    (fun i (name, t) ->
      let stages =
        match stage_durations name with
        | Some (c, e, a) ->
          Printf.sprintf ", %s: { %s: %Ld, %s: %Ld, %s: %Ld }" (key "stages")
            (key "compile_ns") c (key "execute_ns") e (key "analyze_ns") a
        | None -> ""
      in
      p "    { %s: \"%s\", %s: \"%s\", %s: %d, %s: %s, %s: \"%s\"%s }%s\n"
        (key "name") (json_escape name) (key "status")
        (json_escape t.m_status) (key "steps") t.m_steps (key "returned")
        (match t.m_returned with Some v -> string_of_int v | None -> "null")
        (key "completeness")
        (json_escape t.m_completeness)
        stages
        (if i = List.length terms - 1 then "" else ","))
    terms;
  p "  ],\n";
  p "  %s: [\n" (key "experiments");
  List.iteri
    (fun i t ->
      let ips =
        if t.wall_s > 0. then float_of_int t.instructions /. t.wall_s else 0.
      in
      let span =
        match t.t_span_ns with
        | Some ns -> Printf.sprintf ", %s: %Ld" (key "span_ns") ns
        | None -> ""
      in
      let metrics =
        if not (Obs.Ctx.enabled !obs) then ""
        else
          Printf.sprintf ", %s: [ %s ]" (key "metrics")
            (String.concat ", "
               (List.map
                  (fun (n, v) ->
                    Printf.sprintf "{ %s: \"%s\", %s: %d }" (key "name")
                      (json_escape n) (key "value") v)
                  t.t_metric_deltas))
      in
      p "    { %s: \"%s\", %s: %.3f, %s: %d, %s: %d, %s: %.0f%s%s }%s\n"
        (key "name") (json_escape t.t_name) (key "wall_s") t.wall_s
        (key "instructions_analyzed") t.instructions
        (key "instructions_requested") t.requested
        (key "instructions_per_s") ips span metrics
        (if i = List.length timings - 1 then "" else ","))
    timings;
  p "  ]\n";
  p "}\n";
  close_out oc

let run_experiments selected =
  (* Union the needs of everything selected up front, then prefill:
     every workload runs its one execution and one fan-out pass on
     behalf of all selected experiments, in parallel when --jobs allows. *)
  let selected = List.map (fun e -> (e, e.needs ())) selected in
  List.iter
    (fun (e, needs) ->
      List.iter (fun (w, specs) -> register_needs w specs) needs;
      match e.hook with
      | Some h -> prep_hooks := !prep_hooks @ [ h ]
      | None -> ())
    selected;
  prefill ();
  let counter_values snap =
    List.filter_map
      (fun (s : Obs.Metrics.snap) ->
        match s.value with
        | Obs.Metrics.Counter v -> Some (s.name, v)
        | Obs.Metrics.Gauge _ | Obs.Metrics.Histogram _ -> None)
      snap
  in
  let counter_deltas before after =
    let b = Hashtbl.create 64 in
    List.iter (fun (n, v) -> Hashtbl.replace b n v) before;
    List.filter_map
      (fun (n, v) ->
        let d = v - Option.value ~default:0 (Hashtbl.find_opt b n) in
        if d <> 0 then Some (n, d) else None)
      after
  in
  let timings =
    List.mapi
      (fun i (e, needs) ->
        let before = Harness.Counters.analyzed () in
        let snap0 =
          if Obs.Ctx.enabled !obs then
            counter_values (Obs.Ctx.snapshot !obs)
          else []
        in
        let ebuf =
          Obs.Ctx.task_buffer !obs ~index:(experiment_index i) ~label:e.name
        in
        let t0 = now_s () in
        Obs.Span.with_span ebuf ~workload:e.name "experiment" e.run;
        let wall = now_s () -. t0 in
        let span_ns =
          match Obs.Span.spans ebuf with
          | [||] -> None
          | spans -> Some (Obs.Span.dur_ns spans.(0))
        in
        let metric_deltas =
          if Obs.Ctx.enabled !obs then
            counter_deltas snap0 (counter_values (Obs.Ctx.snapshot !obs))
          else []
        in
        (* The experiment's share of the prefill: entries its workloads
           scanned, times the machine states it asked to advance. *)
        let requested =
          List.fold_left
            (fun acc ((w : Workloads.Registry.t), specs) ->
              match Hashtbl.find_opt term_store w.name with
              | Some t -> acc + (t.m_steps * List.length (dedup_specs specs))
              | None -> acc)
            0 needs
        in
        { t_name = e.name; wall_s = wall;
          instructions = Harness.Counters.analyzed () - before;
          requested; t_span_ns = span_ns; t_metric_deltas = metric_deltas })
      selected
  in
  write_json "BENCH_results.json" timings;
  if Obs.Ctx.enabled !obs then begin
    let spans = Obs.Ctx.spans !obs in
    let snap = Obs.Ctx.snapshot !obs in
    (match !trace_out with
    | Some path ->
      let buf = Buffer.create 4096 in
      Obs.Export.jsonl buf ~spans ~metrics:snap;
      let oc = open_out path in
      Buffer.output_buffer oc buf;
      close_out oc
    | None -> ());
    if !metrics_flag then begin
      let buf = Buffer.create 4096 in
      Obs.Export.tree buf ~metrics:snap spans;
      print_string (Buffer.contents buf)
    end
  end;
  Format.printf
    "@.[BENCH_results.json: %d experiments, %d VM executions, %d analyzer \
     passes, %d Minstr analyzed, jobs=%d]@."
    (List.length timings)
    (Harness.Counters.executions ())
    (Harness.Counters.passes ())
    (Harness.Counters.analyzed () / 1_000_000)
    (resolved_jobs ());
  if !scaling_failed || !segment_failed || !static_failed || !serve_failed
  then exit 1

let usage () =
  prerr_endline
    "usage: main.exe [--fuel N] [--jobs N] [--segment-steps N|auto] \
     [--metrics] [--trace-out FILE] [--list] [experiment ...]\n\
     With no experiment names, runs everything except `scaling` and \
     `segment-scaling`.";
  exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse names = function
    | [] -> List.rev names
    | "--list" :: _ ->
      List.iter (fun e -> print_endline e.name) experiments;
      exit 0
    | "--fuel" :: n :: rest ->
      (match int_of_string_opt n with
      | Some f when f > 0 -> fuel_override := Some f
      | _ -> usage ());
      parse names rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j -> (
        (* same typed validation (and message, and exit code) as the
           CLI's run and fuzz commands *)
        match Cli.Parallel.validate_jobs j with
        | Ok j -> jobs_override := Some j
        | Error e ->
          prerr_endline ("bench: " ^ Pipeline_error.to_string e);
          exit (Pipeline_error.exit_code e))
      | None -> usage ());
      parse names rest
    | "--segment-steps" :: s :: rest ->
      (* same parser (and typed error, and exit code) as run/serve *)
      (match Cli.Parallel.segmenting_of_flag (Some s) with
      | Ok seg -> segment_override := seg
      | Error e ->
        prerr_endline ("bench: " ^ Pipeline_error.to_string e);
        exit (Pipeline_error.exit_code e));
      parse names rest
    | "--metrics" :: rest ->
      metrics_flag := true;
      parse names rest
    | "--trace-out" :: f :: rest ->
      trace_out := Some f;
      parse names rest
    | ("--fuel" | "--jobs" | "--trace-out" | "--segment-steps") :: [] ->
      usage ()
    | name :: rest -> parse (name :: names) rest
  in
  let names = parse [] args in
  if !metrics_flag || !trace_out <> None then obs := Obs.Ctx.create ();
  let with_banner e =
    { e with
      run =
        (fun () ->
          Format.printf "@.### %s ###@.@." e.name;
          e.run ()) }
  in
  let selected =
    match names with
    | [] -> List.map with_banner default_experiments
    | names ->
      List.map
        (fun name ->
          match List.find_opt (fun e -> e.name = name) experiments with
          | Some e -> e
          | None ->
            prerr_endline ("unknown experiment: " ^ name);
            exit 1)
        names
  in
  run_experiments selected
