(* What one run of a workload produced, and how it is printed: a
   human-readable report on stderr, then one JSON line on stdout. *)

type t = {
  attempted : int;
  failed : int;  (** errors and results that differ from the reference *)
  metrics : (string * float * string) list;  (** name, value, unit *)
  report : string list;
  spans : Tracer.span list;  (** traced runs only *)
}

(* Median and tail of a latency sample, each with its sample count. *)
let timing ~what lats =
  let n = Array.length lats in
  let tail =
    match Measure.tail lats with
    | Some (pct, v) ->
      Printf.sprintf "tail_ms p%.1f = %.3f (10 of %d samples beyond)" pct v n
    | None -> Printf.sprintf "tail_ms not reported: %d samples, 22 needed" n
  in
  [ Printf.sprintf "%s: p50_ms = %.3f over %d samples; %s" what
      (Measure.median lats) n tail ]

(* Whole-run VmHWM: printed, not gated.  On serve-mixed it spread 27 %
   between seeds, beyond any usable bound. *)
let peak_rss () = Printf.sprintf "peak_rss_mb (VmHWM) = %.1f" (Measure.peak_rss_mb ())

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print ~workload ~trace r =
  Printf.eprintf "== %s (trace %d)\n" workload (if trace then 1 else 0);
  List.iter (Printf.eprintf "  %s\n") r.report;
  List.iter
    (fun (name, v, unit) -> Printf.eprintf "  %-40s %14.4f %s\n" name v unit)
    r.metrics;
  let metrics =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
      r.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", " metrics)
