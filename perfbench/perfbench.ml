(* The benchmark program.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
     perfbench.exe --write-golden PATH

   Run from the repository root.  Prints a report on stderr and, as the
   last line of stdout, one JSON object: correct, attempted, failed and
   the metrics that BENCHMARK.json names (end_to_end with --trace 0,
   per_layer with --trace 1).  Exits nonzero when a result differs from
   its reference or a named metric is missing. *)

let process_start = Measure.now_ns ()

let golden_path = "perfbench/golden.txt"
let spec_path = "BENCHMARK.json"

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload paper-sweep|one-trace|serve-mixed --seed N \
     --seconds S --trace 0|1\n       perfbench.exe --write-golden PATH";
  exit 2

(* (name, unit) of each metric in one BENCHMARK.json section. *)
let named section =
  let open Serve.Jsonx in
  match parse (In_channel.with_open_bin spec_path In_channel.input_all) with
  | Error e -> failwith (spec_path ^ ": " ^ e)
  | Ok j ->
    Option.bind (member section j) to_list
    |> Option.value ~default:[]
    |> List.filter_map (fun m ->
           match (member "name" m, member "unit" m) with
           | Some (Str n), Some (Str u) -> Some (n, u)
           | _ -> None)

(* Keep exactly the named metrics; per-layer metrics a workload does
   not exercise read 0, a missing end-to-end metric is an error. *)
let select ~trace (r : Report.t) =
  let names = named (if trace then "per_layer" else "end_to_end") in
  let find n = List.find_opt (fun (m, _, _) -> m = n) r.metrics in
  let missing = List.filter (fun (n, _) -> find n = None) names in
  if missing <> [] && not trace then
    failwith ("metrics not measured: " ^ String.concat ", " (List.map fst missing));
  { r with
    metrics =
      List.map (fun (n, u) -> match find n with Some m -> m | None -> (n, 0., u)) names }

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k = List.assoc_opt k opts in
  match get "--write-golden" with
  | Some path -> Golden.write path
  | None ->
    let workload = Option.value (get "--workload") ~default:"" in
    let int k = match Option.bind (get k) int_of_string_opt with Some v -> v | None -> usage () in
    let seed = int "--seed" and seconds = float_of_int (int "--seconds") in
    let trace = int "--trace" = 1 in
    if not (Sys.file_exists spec_path && Sys.file_exists golden_path) then begin
      prerr_endline "run from the repository root (BENCHMARK.json and perfbench/golden.txt)";
      exit 2
    end;
    let golden = Golden.load golden_path in
    let pipeline t =
      if trace then Pipeline_load.traced ~golden ~seconds t
      else Pipeline_load.timed ~golden ~seconds ~process_start t
    in
    let r =
      match workload with
      | "paper-sweep" -> pipeline Pipeline_load.paper_sweep
      | "one-trace" -> pipeline Pipeline_load.one_trace
      | "serve-mixed" ->
        if trace then Serve_load.traced ~seed ~seconds ()
        else Serve_load.timed ~seed ~seconds ~process_start ()
      | _ -> usage ()
    in
    if trace then begin
      let path = Printf.sprintf "%s/spans-%s-%d.jsonl" Serve_load.socket_dir workload seed in
      if not (Sys.file_exists Serve_load.socket_dir) then Sys.mkdir Serve_load.socket_dir 0o755;
      Tracer.write path r.spans;
      List.iter
        (fun (name, (n, total, self)) ->
          Printf.eprintf "  span %-24s n=%-6d total %.1f ms  self %.1f ms\n" name n total self)
        (Tracer.summary r.spans);
      Printf.eprintf "  spans written to %s\n" path
    end;
    let r = select ~trace r in
    Report.print ~workload ~trace r;
    if r.failed > 0 then exit 1
