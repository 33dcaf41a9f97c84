(* The serve-mixed workload: an in-process [Serve.Server] on a Unix
   socket inside the working directory (pool width = recommended
   domains, admission off, segmentation off, default cache), driven in
   a closed loop by two [Serve.Client] connections, each on its own
   domain, each sending its next request when the previous reply
   arrives.

   The request mix comes from the seed alone; request [i] is a pure
   function of [(seed, i)].  Requests come in blocks of forty, one per
   (registry workload, fuel) pair in a seeded order; in each block half
   name two paper machines and half one, all drawn from the seed, and
   ten send the workload's source with a comment unique to the request
   instead of its name, so its digest misses the compiled-program
   cache.  Fixing each block's composition keeps the work a run
   measures the same from seed to seed; the seed picks the order, the
   machines and which requests miss. *)

let connections = 2
let fuels = [| 100_000; 200_000; 300_000; 400_000 |]
let machines = Array.of_list Ilp.Machine.all_paper
let registry_workloads = Array.of_list Workloads.Registry.all
let block = Array.length registry_workloads * Array.length fuels

type request = {
  workload : Workloads.Registry.t;
  machines : Ilp.Machine.t list;
  fuel : int;
  variant : bool;  (** sent as a fresh source: a compile-cache miss *)
}

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let generate ~seed i =
  let st = Random.State.make [| seed; i / block |] in
  let slots = shuffle st (Array.init block Fun.id) in
  let two = shuffle st (Array.init block (fun k -> k < block / 2)) in
  let variant = shuffle st (Array.init block (fun k -> k < block / 4)) in
  let pos = i mod block in
  let w = registry_workloads.(slots.(pos) mod Array.length registry_workloads) in
  let fuel = fuels.(slots.(pos) / Array.length registry_workloads) in
  let st = Random.State.make [| seed; i |] in
  let m1 = Random.State.int st (Array.length machines) in
  let ms =
    if two.(pos) then
      [ machines.(m1); machines.((m1 + 1 + Random.State.int st 6) mod 7) ]
    else [ machines.(m1) ]
  in
  if variant.(pos) then
    let source = Printf.sprintf "%s\n/* variant %d of seed %d */\n" w.source i seed in
    let digest = Digest.to_hex (Digest.string source) in
    { workload = { w with name = "adhoc:" ^ String.sub digest 0 12; source };
      machines = ms; fuel; variant = true }
  else { workload = w; machines = ms; fuel; variant = false }

let payload ~id r =
  let machines = List.map Ilp.Machine.to_spec r.machines in
  let a =
    if r.variant then
      Serve.Protocol.analyze ~source:r.workload.source ~machines ~fuel:r.fuel ()
    else Serve.Protocol.analyze ~workload:r.workload.name ~machines ~fuel:r.fuel ()
  in
  Serve.Protocol.analyze_request ~id a

(* Same request, same reply: the key the inline reference is memoized
   on (variant sources are unique, so each is its own key). *)
let key r =
  Printf.sprintf "%s|%s|%d" (Digest.to_hex (Digest.string r.workload.source))
    (String.concat "," (List.map Ilp.Machine.to_spec r.machines)) r.fuel

(* A reply with the per-exchange fields ([id], [cached]) dropped. *)
let body = function
  | Serve.Jsonx.Obj fields ->
    Serve.Jsonx.Obj (List.filter (fun (k, _) -> k <> "id" && k <> "cached") fields)
  | j -> j

(* The reference: [Harness.Request.exec] run inline on the request,
   rendered and parsed exactly as the server's reply is. *)
let expected r =
  match
    Harness.Request.exec ~fuel:r.fuel ~specs:(List.map (fun m -> Harness.spec m) r.machines)
      r.workload
  with
  | Error e -> Error (Pipeline_error.to_string e)
  | Ok reply ->
    Result.map body (Serve.Jsonx.parse (Serve.Protocol.ok_analyze ~id:0 ~cached:false reply))

let counted j =
  match Option.bind (Serve.Jsonx.member "results" j) Serve.Jsonx.to_list with
  | None -> 0
  | Some rs ->
    List.fold_left
      (fun a r -> a + Option.value ~default:0 (Option.bind (Serve.Jsonx.member "counted" r) Serve.Jsonx.to_int))
      0 rs

let cached j = Option.bind (Serve.Jsonx.member "cached" j) Serve.Jsonx.to_bool = Some true

type server = {
  srv : Serve.Server.t;
  registry : Obs.Metrics.t;
  clients : Serve.Client.t array;
}

let socket_dir = ".perfbench"

let start () =
  if not (Sys.file_exists socket_dir) then Sys.mkdir socket_dir 0o755;
  let socket_path = Printf.sprintf "%s/serve-%d.sock" socket_dir (Unix.getpid ()) in
  let registry = Obs.Metrics.create () in
  let cfg =
    Serve.Server.config ~jobs:(Stdx.Pool.recommended_jobs ())
      ~admission:Serve.Server.Admit_off ~segment_steps:`Off ~registry ~socket_path ()
  in
  let srv = match Serve.Server.start cfg with Ok s -> s | Error e -> failwith e in
  let connect () =
    match Serve.Client.connect (Serve.Client.Unix_sock socket_path) with
    | Ok c -> c
    | Error e -> failwith e
  in
  let clients = Array.init connections (fun _ -> connect ()) in
  (* One untimed warm-up exchange per connection. *)
  Array.iter
    (fun c ->
      let a = Serve.Protocol.analyze ~workload:"awk" ~machines:[ "base" ] ~fuel:20_000 () in
      match Serve.Client.call c (Serve.Protocol.analyze_request ~id:(Serve.Client.fresh_id c) a) with
      | Ok _ -> ()
      | Error e -> failwith e)
    clients;
  { srv; registry; clients }

let stop s =
  Array.iter Serve.Client.close s.clients;
  Serve.Server.stop s.srv

type exchange = {
  index : int;
  request : request;
  ms : float;
  reply : (Serve.Jsonx.t, string) result;
  jsonx_us : float;  (** traced runs: reply to_string + parse *)
  done_ms : float;  (** completion, since the window opened *)
}

(* Connection [c] sends requests base + c, base + c + 2, ... until the
   window closes; with [trace], each exchange records a span tree.
   Returns the exchanges, the window's seconds and the highest queue
   depth seen. *)
let drive ?(base = 0) ~seed ~seconds ~trace s =
  let t0 = Measure.now_ns () in
  let depth = Obs.Metrics.gauge s.registry "serve_queue_depth" in
  let depth_max = Atomic.make 0 in
  let run c () =
    let client = s.clients.(c) in
    let rec loop k acc =
      if Measure.ms_since t0 >= seconds *. 1000. then acc
      else
        let index = base + c + (connections * k) in
        let request = generate ~seed index in
        let exchange () =
          let p = payload ~id:(Serve.Client.fresh_id client) request in
          Serve.Client.call client p
        in
        let e =
          if not trace then
            let reply, ms = Measure.timed exchange in
            { index; request; ms; reply; jsonx_us = 0.; done_ms = Measure.ms_since t0 }
          else
            let b = Tracer.buffer ~req:index ~parent:(-1) in
            Tracer.with_span b "serve.request" (fun () ->
                let reply, ms = Tracer.with_span b "serve.client_call" (fun () -> Measure.timed exchange) in
                let _, jms =
                  Tracer.with_span b "serve.jsonx" (fun () ->
                      Measure.timed (fun () ->
                          Result.map (fun j -> Serve.Jsonx.parse (Serve.Jsonx.to_string j)) reply))
                in
                { index; request; ms; reply; jsonx_us = jms *. 1000.;
                  done_ms = Measure.ms_since t0 })
        in
        let d = Obs.Metrics.gauge_value depth in
        if d > Atomic.get depth_max then Atomic.set depth_max d;
        loop (k + 1) (e :: acc)
    in
    loop 0 []
  in
  let domains = Array.init connections (fun c -> Domain.spawn (run c)) in
  let exchanges = Array.to_list domains |> List.concat_map Domain.join in
  let window_s = Measure.ms_since t0 /. 1000. in
  (List.sort (fun a b -> compare a.index b.index) exchanges, window_s, Atomic.get depth_max)

(* Every reply against the inline reference; returns the failures. *)
let verify exchanges =
  let memo = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace memo (key e.request) e.request) exchanges;
  let distinct = Hashtbl.fold (fun k r acc -> (k, r) :: acc) memo [] |> Array.of_list in
  let refs =
    Stdx.Pool.with_pool ~jobs:(Stdx.Pool.recommended_jobs ()) (fun pool ->
        Stdx.Pool.map_array pool (fun (k, r) -> (k, expected r)) distinct)
  in
  let tbl = Hashtbl.create 256 in
  Array.iter (fun (k, v) -> Hashtbl.replace tbl k v) refs;
  List.length
    (List.filter
       (fun e ->
         match (e.reply, Hashtbl.find tbl (key e.request)) with
         | Ok j, Ok want ->
           Option.bind (Serve.Jsonx.member "ok" j) Serve.Jsonx.to_bool <> Some true || body j <> want
         | _ -> true)
       exchanges)

let share p xs =
  float_of_int (List.length (List.filter p xs)) /. float_of_int (max 1 (List.length xs))

let mix_report exchanges =
  let ok = List.filter_map (fun e -> Result.to_option e.reply) exchanges in
  [ Printf.sprintf
      "mix: %d exchanges; %.3f sent as fresh sources; %.3f answered from a cache miss; %.3f with two machines"
      (List.length exchanges)
      (share (fun e -> e.request.variant) exchanges)
      (share (fun j -> not (cached j)) ok)
      (share (fun e -> List.length e.request.machines = 2) exchanges) ]

let slices = 10

(* Throughput as the median over ten equal slices of the window, by
   completion time: a host stall in one slice does not move it.
   Returns (latencies, sim_mips, rps). *)
let totals exchanges window_s =
  let width = window_s *. 1000. /. float_of_int slices in
  let work = Array.make slices 0 and count = Array.make slices 0 in
  List.iter
    (fun e ->
      let k = min (slices - 1) (int_of_float (e.done_ms /. width)) in
      count.(k) <- count.(k) + 1;
      match e.reply with Ok j -> work.(k) <- work.(k) + counted j | Error _ -> ())
    exchanges;
  let rate a = Measure.median (Array.map (fun x -> float_of_int x /. (width /. 1000.)) a) in
  (Array.of_list (List.map (fun e -> e.ms) exchanges), rate work /. 1e6, rate count)

let timed ~seed ~seconds ~process_start () =
  let setups = 3 in
  let setup_s = Array.make setups 0. in
  let server = ref None in
  for i = 0 to setups - 1 do
    Option.iter stop !server;
    let t0 = if i = 0 then process_start else Measure.now_ns () in
    server := Some (start ());
    setup_s.(i) <- Measure.ms_since t0 /. 1000.
  done;
  let s = Option.get !server in
  let exchanges, window_s, _ = drive ~seed ~seconds ~trace:false s in
  stop s;
  let peak = Report.peak_rss () in
  let failed = verify exchanges in
  let n = List.length exchanges in
  let lats, mips, rps = totals exchanges window_s in
  { Report.attempted = n; failed;
    metrics =
      [ ("setup_s", Measure.median setup_s, "s");
        ("sim_mips", mips, "Minsn/s");
        ("p50_ms", Measure.median lats, "ms");
        ("rps", rps, "1/s") ];
    report =
      Report.timing ~what:"exchange" lats
      @ [ peak ]
      @ mix_report exchanges
      @ [ Printf.sprintf "replies differing from the inline reference or failed: %d of %d (error_rate %.4f)"
            failed n (float_of_int failed /. float_of_int (max 1 n)) ];
    spans = [] }

let traced ~seed ~seconds () =
  let s = start () in
  let plain, plain_s, _ = drive ~seed ~seconds:(seconds /. 2.) ~trace:false s in
  let base = List.fold_left (fun a e -> max a (e.index + 1)) 0 plain in
  let exchanges, window_s, depth_max =
    drive ~base ~seed ~seconds:(seconds /. 2.) ~trace:true s
  in
  stop s;
  let all = plain @ exchanges in
  let failed = verify all in
  let snap = Obs.Metrics.snapshot s.registry in
  let server_ms, shed =
    List.fold_left
      (fun (ms, shed) (m : Obs.Metrics.snap) ->
        match (m.name, m.value) with
        | "serve_request_ms", Histogram h ->
          (float_of_int h.sum /. float_of_int (max 1 (Array.fold_left ( + ) 0 h.counts)), shed)
        | "serve_shed_total", Counter c -> (ms, c)
        | _ -> (ms, shed))
      (0., 0) snap
  in
  let plain_lats, plain_mips, _ = totals plain plain_s in
  let lats, mips, _ = totals exchanges window_s in
  let all_lats = Array.append plain_lats lats in
  let ok = List.filter_map (fun e -> Result.to_option e.reply) all in
  (* Layer probes on the first few distinct registry requests of the mix. *)
  let sample =
    List.fold_left
      (fun acc e ->
        if e.request.variant || List.length acc >= 5
           || List.exists (fun r -> key r = key e.request) acc
        then acc
        else acc @ [ e.request ])
      [] exchanges
  in
  Gc.compact ();
  let probes =
    List.map (fun r -> Probe.run ~fuel:r.fuel ~machines:r.machines r.workload) sample
  in
  let spans = Tracer.spans () in
  let span_cost = Tracer.span_cost_ns () in
  let metrics =
    Probe.metrics probes
    @ [ ("serve.server_ms", server_ms, "ms");
        ("serve.wire_ms", Measure.sum all_lats /. float_of_int (Array.length all_lats) -. server_ms, "ms");
        ("serve.jsonx_us", Measure.median (Array.of_list (List.map (fun e -> e.jsonx_us) exchanges)), "us");
        ("serve.cache_hit_ratio", share cached ok, "ratio");
        ("serve.two_machine_share", share (fun e -> List.length e.request.machines = 2) all, "ratio");
        ("serve.queue_depth_max", float_of_int depth_max, "count");
        ("serve.shed", float_of_int shed, "count");
        ("trace.sim_mips_untraced", plain_mips, "Minsn/s");
        ("trace.sim_mips_traced", mips, "Minsn/s");
        ("trace.overhead_pct", 100. *. (1. -. (mips /. plain_mips)), "%");
        (* three spans per traced exchange *)
        ("trace.span_cost_pct",
         100. *. 3. *. span_cost /. 1e6 /. Measure.median lats, "%") ]
  in
  { Report.attempted = List.length all; failed; metrics;
    report =
      Report.timing ~what:"untraced exchange" plain_lats
      @ Report.timing ~what:"traced exchange" lats
      @ mix_report all;
    spans }
