(* Spans recorded by the benchmark around its calls into each layer of
   the program.  A span carries its name, start, end, parent span and
   request id.  Every task records into its own single-writer buffer
   (so pool domains never share one); buffers are collected under a
   lock and merged when the run ends. *)

type span = {
  id : int;
  parent : int;  (** -1 for a request's root *)
  req : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

type buffer = {
  b_req : int;
  b_parent : int;
  mutable open_ids : int list;
  mutable closed : span list;
}

let next_id = Atomic.make 0
let buffers = ref []
let lock = Mutex.create ()

(* A buffer for one task of request [req]; spans opened at its top
   level hang under [parent]. *)
let buffer ~req ~parent =
  let b = { b_req = req; b_parent = parent; open_ids = []; closed = [] } in
  Mutex.protect lock (fun () -> buffers := b :: !buffers);
  b

(* The span id new spans in [b] would nest under. *)
let current b = match b.open_ids with p :: _ -> p | [] -> b.b_parent

let with_span b name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = current b in
  b.open_ids <- id :: b.open_ids;
  let start_ns = Measure.now_ns () in
  Fun.protect f ~finally:(fun () ->
      let stop_ns = Measure.now_ns () in
      b.open_ids <- List.tl b.open_ids;
      b.closed <-
        { id; parent; req = b.b_req; name; start_ns; stop_ns } :: b.closed)

let spans () =
  let all =
    Mutex.protect lock (fun () -> List.concat_map (fun b -> b.closed) !buffers)
  in
  List.sort (fun a b -> compare a.id b.id) all

let dur_ns s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

(* Self time: the span's duration minus the part of its interval that
   its children cover (children on other domains may overlap, so
   covered time is the union of their clipped intervals). *)
let self_ns (all : span list) =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) all;
  fun s ->
    let ivs =
      Hashtbl.find_all children s.id
      |> List.map (fun c -> (max c.start_ns s.start_ns, min c.stop_ns s.stop_ns))
      |> List.filter (fun (a, b) -> b > a)
      |> List.sort compare
    in
    let covered, _ =
      List.fold_left
        (fun (acc, hi) (a, b) ->
          let a = max a hi in
          if b > a then (acc +. Int64.to_float (Int64.sub b a), b) else (acc, hi))
        (0., Int64.min_int) ivs
    in
    dur_ns s -. covered

(* Per span name: (count, total ms, total self ms), in name order. *)
let summary all =
  let self = self_ns all in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let n, d, sf =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace tbl s.name (n + 1, d +. (dur_ns s /. 1e6), sf +. (self s /. 1e6)))
    all;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* One JSON object per line. *)
let write path all =
  let self = self_ns all in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"self_ns\":%.0f}\n"
        s.id s.parent s.req s.name s.start_ns s.stop_ns (self s))
    all;
  close_out oc

(* What one span costs to record, in ns: the median of a few batches
   of empty spans on a scratch buffer that is then dropped. *)
let span_cost_ns () =
  let b = { b_req = -1; b_parent = -1; open_ids = []; closed = [] } in
  let batch () =
    b.closed <- [];
    let n = 10_000 in
    let (), ms = Measure.timed (fun () -> for _ = 1 to n do with_span b "x" ignore done) in
    ms *. 1e6 /. float_of_int n
  in
  Measure.median (Array.init 5 (fun _ -> batch ()))
