(* Clock, order statistics and process counters shared by every
   workload of the benchmark. *)

let now_ns () = Monotonic_clock.now ()

let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

(* [f ()] and its wall time in milliseconds. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, ms_since t0)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear-interpolated quantile, [q] in [0, 1]; [nan] on no samples. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))

let median a = quantile a 0.5

(* The highest percentile with at least ten samples beyond it, when
   that percentile lies above the median: [Some (percent, value)].
   With n sorted samples it is the (n - 10)th smallest, so it needs
   n >= 22 to be a tail at all. *)
let tail a =
  let n = Array.length a in
  let k = n - 11 in
  if k <= (n - 1) / 2 then None
  else
    let s = sorted a in
    Some (100. *. float_of_int (k + 1) /. float_of_int n, s.(k))

let sum a = Array.fold_left ( +. ) 0. a

(* VmHWM of this process, in MB; 0 where /proc is unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* Allocation counters of the calling domain.  Minor and promoted
   words are per domain in OCaml 5, so a delta taken around a call that
   runs entirely on one domain counts that call alone. *)
type gc = { minor : float; promoted : float }

let gc () =
  let minor, promoted, _ = Gc.counters () in
  { minor; promoted }

let gc_delta a b = { minor = b.minor -. a.minor; promoted = b.promoted -. a.promoted }
let gc_zero = { minor = 0.; promoted = 0. }
let gc_add a b = { minor = a.minor +. b.minor; promoted = a.promoted +. b.promoted }

(* Process-wide. *)
let major_collections () = (Gc.quick_stat ()).Gc.major_collections
