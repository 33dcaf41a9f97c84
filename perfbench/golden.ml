(* Golden simulated statistics: per (workload, machine) the counted
   instructions, parallel cycles and mispredicts at the workload's
   default fuel, from the sequential, un-segmented, materialized path.
   One line per pair: "workload machine counted cycles mispredicts".
   The simulator has no hardware reference, so this pins the model
   against itself: a change meant only to speed it up must leave every
   line identical. *)

type row = { counted : int; cycles : int; mispredicts : int }

let row_of (r : Ilp.Analyze.result) =
  { counted = r.counted; cycles = r.cycles; mispredicts = r.mispredicts }

let paper_specs () = List.map (fun m -> Harness.spec m) Ilp.Machine.all_paper

(* Regenerate the file from the reference path. *)
let write path =
  let cfg = Harness.Run.config ~jobs:1 ~segment_steps:`Off (paper_specs ()) in
  match Harness.Run.exec cfg Workloads.Registry.all with
  | Error e -> failwith (Pipeline_error.to_string e)
  | Ok items ->
    let oc = open_out path in
    List.iter
      (fun (it : Harness.Run.item) ->
        match it.it_outcome with
        | Error e -> failwith (Pipeline_error.to_string e)
        | Ok results ->
          List.iter
            (fun (r : Ilp.Analyze.result) ->
              Printf.fprintf oc "%s %s %d %d %d\n" it.it_workload.name r.machine
                r.counted r.cycles r.mispredicts)
            results)
      items;
    close_out oc

type t = (string * string, row) Hashtbl.t

let load path : t =
  let tbl = Hashtbl.create 80 in
  let ic = open_in path in
  (try
     while true do
       Scanf.sscanf (input_line ic) "%s %s %d %d %d"
         (fun w m counted cycles mispredicts ->
           Hashtbl.replace tbl (w, m) { counted; cycles; mispredicts })
     done
   with End_of_file -> ());
  close_in ic;
  tbl

(* Does one workload's result list match the golden, machine by
   machine, with nothing missing? *)
let matches (g : t) ~workload (results : Ilp.Analyze.result list) =
  List.length results = List.length Ilp.Machine.all_paper
  && List.for_all
       (fun (r : Ilp.Analyze.result) ->
         Hashtbl.find_opt g (workload, r.machine) = Some (row_of r))
       results

(* A whole [Run.exec] request: every workload present and matching. *)
let request_ok g ~expect = function
  | Error _ -> false
  | Ok (items : Harness.Run.item list) ->
    List.map (fun (it : Harness.Run.item) -> it.it_workload.name) items = expect
    && List.for_all
         (fun (it : Harness.Run.item) ->
           match it.it_outcome with
           | Ok results -> matches g ~workload:it.it_workload.name results
           | Error _ -> false)
         items
