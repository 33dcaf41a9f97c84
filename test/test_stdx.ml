(* Unit and property tests for the Stdx utility library. *)

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let test_vec_basic () =
  let v = Stdx.Vec.create ~dummy:0 () in
  Alcotest.(check bool) "empty" true (Stdx.Vec.is_empty v);
  for i = 0 to 99 do
    Stdx.Vec.push v i
  done;
  check_int "length" 100 (Stdx.Vec.length v);
  check_int "get 0" 0 (Stdx.Vec.get v 0);
  check_int "get 99" 99 (Stdx.Vec.get v 99);
  check_int "last" 99 (Stdx.Vec.last v);
  Stdx.Vec.set v 5 500;
  check_int "set/get" 500 (Stdx.Vec.get v 5)

let test_vec_pop () =
  let v = Stdx.Vec.create ~dummy:0 () in
  Stdx.Vec.push v 1;
  Stdx.Vec.push v 2;
  check_int "pop" 2 (Stdx.Vec.pop v);
  check_int "length after pop" 1 (Stdx.Vec.length v);
  check_int "pop again" 1 (Stdx.Vec.pop v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty")
    (fun () -> ignore (Stdx.Vec.pop v))

let test_vec_bounds () =
  let v = Stdx.Vec.create ~dummy:0 () in
  Stdx.Vec.push v 42;
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Stdx.Vec.get v 1));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Stdx.Vec.get v (-1)))

let test_vec_iter_fold () =
  let v = Stdx.Vec.of_array ~dummy:0 [| 1; 2; 3; 4 |] in
  let sum = Stdx.Vec.fold_left ( + ) 0 v in
  check_int "fold sum" 10 sum;
  let count = ref 0 in
  Stdx.Vec.iteri (fun i x -> count := !count + (i * x)) v;
  check_int "iteri" (0 + 2 + 6 + 12) !count;
  Stdx.Vec.clear v;
  check_int "clear" 0 (Stdx.Vec.length v)

let test_vec_roundtrip =
  QCheck.Test.make ~name:"vec push/to_array roundtrip" ~count:200
    QCheck.(list int)
    (fun xs ->
      let v = Stdx.Vec.create ~dummy:0 () in
      List.iter (Stdx.Vec.push v) xs;
      Stdx.Vec.to_array v = Array.of_list xs)

let test_vec_iter_roundtrip =
  QCheck.Test.make ~name:"vec push/iteri roundtrip" ~count:200
    QCheck.(list int)
    (fun xs ->
      let v = Stdx.Vec.create ~dummy:0 () in
      List.iter (Stdx.Vec.push v) xs;
      let seen = ref [] and expected_i = ref 0 and ordered = ref true in
      Stdx.Vec.iteri
        (fun i x ->
          if i <> !expected_i then ordered := false;
          incr expected_i;
          seen := x :: !seen)
        v;
      !ordered && List.rev !seen = xs)

let test_vec_growth =
  (* Starting from capacity 1 forces a doubling at every power of two;
     contents and order must survive each one. *)
  QCheck.Test.make ~name:"vec growth preserves contents" ~count:200
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (xs, ys) ->
      let v = Stdx.Vec.create ~capacity:1 ~dummy:(-1) () in
      List.iter (Stdx.Vec.push v) xs;
      let popped = List.map (fun _ -> Stdx.Vec.pop v) xs in
      List.iter (Stdx.Vec.push v) ys;
      popped = List.rev xs
      && Stdx.Vec.length v = List.length ys
      && Stdx.Vec.to_array v = Array.of_list ys)

let test_means () =
  check_float "mean" 2. (Stdx.Stats.mean [ 1.; 2.; 3. ]);
  check_float "harmonic of equal" 5. (Stdx.Stats.harmonic_mean [ 5.; 5. ]);
  check_float "harmonic 1,2" (4. /. 3.)
    (Stdx.Stats.harmonic_mean [ 1.; 2. ]);
  check_float "geometric" 2. (Stdx.Stats.geometric_mean [ 1.; 4. ]);
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty")
    (fun () -> ignore (Stdx.Stats.mean []));
  Alcotest.check_raises "non-positive harmonic"
    (Invalid_argument "Stats.harmonic_mean: non-positive") (fun () ->
      ignore (Stdx.Stats.harmonic_mean [ 1.; 0. ]))

let test_mean_inequality =
  QCheck.Test.make ~name:"harmonic <= geometric <= arithmetic" ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (float_range 0.001 1000.))
    (fun xs ->
      let h = Stdx.Stats.harmonic_mean xs in
      let g = Stdx.Stats.geometric_mean xs in
      let a = Stdx.Stats.mean xs in
      h <= g +. 1e-6 && g <= a +. 1e-6)

let test_percentile () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "median" 3. (Stdx.Stats.percentile 0.5 xs);
  check_float "min" 1. (Stdx.Stats.percentile 0. xs);
  check_float "max" 5. (Stdx.Stats.percentile 1. xs);
  check_float "p25" 2. (Stdx.Stats.percentile 0.25 xs)

let test_cumulative () =
  let c = Stdx.Stats.cumulative [ (3, 1); (1, 2); (2, 1) ] in
  Alcotest.(check (list (pair int (float 1e-9))))
    "cdf"
    [ (1, 0.5); (2, 0.75); (3, 1.0) ]
    c;
  Alcotest.(check (list (pair int (float 1e-9)))) "empty" []
    (Stdx.Stats.cumulative [])

(* ------------------------------------------------------------------ *)
(* Jsonx: total parse, deterministic print. *)

module Jsonx = Stdx.Jsonx

let check = Alcotest.check
let fail = Alcotest.fail
let bool = Alcotest.bool
let string = Alcotest.string

let test_jsonx_roundtrip () =
  let src = {|{"a":1,"b":[true,null,"x\ny"],"c":{"d":2.5},"e":-7}|} in
  match Jsonx.parse src with
  | Error e -> fail e
  | Ok v -> (
    check bool "int member" true (Jsonx.(member "a" v |> Option.get |> to_int) = Some 1);
    check bool "nested float" true
      (Jsonx.(member "c" v |> Option.get |> member "d" |> Option.get |> to_float)
      = Some 2.5);
    (match Jsonx.(member "b" v |> Option.get |> to_list) with
    | Some [ b; n; s ] ->
      check bool "bool" true (Jsonx.to_bool b = Some true);
      check bool "null is not a string" true (Jsonx.to_str n = None);
      check bool "escaped string" true (Jsonx.to_str s = Some "x\ny")
    | _ -> fail "list shape");
    (* print → parse is the identity *)
    match Jsonx.parse (Jsonx.to_string v) with
    | Ok v2 -> check bool "print/parse identity" true (v = v2)
    | Error e -> fail e)

(* Trees whose strings (values and keys) mix every control byte, the
   two characters with short escapes of their own, and 2-, 3- and
   4-byte UTF-8.  Floats are quarter-offset so [%.12g] prints them
   exactly and they never print as integers. *)
let gen_json =
  let open QCheck.Gen in
  let piece =
    oneof
      [ map (fun i -> String.make 1 (Char.chr i)) (0 -- 0x1f);
        oneofl [ "\""; "\\"; "/"; "a"; " "; "\xc3\xa9"; "\xe2\x82\xac";
                 "\xf0\x9d\x84\x9e" ] ]
  in
  let str = map (String.concat "") (list_size (0 -- 8) piece) in
  let leaf =
    oneof
      [ return Jsonx.Null;
        map (fun b -> Jsonx.Bool b) bool;
        map (fun i -> Jsonx.Int i) int;
        map
          (fun i -> Jsonx.Float (float_of_int i +. 0.25))
          (-1_000_000 -- 1_000_000);
        map (fun s -> Jsonx.Str s) str ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun l -> Jsonx.List l) (list_size (0 -- 4) (self (n / 4))));
               ( 1,
                 map
                   (fun l -> Jsonx.Obj l)
                   (list_size (0 -- 4) (pair str (self (n / 4))))) ])

let test_jsonx_roundtrip_generated =
  QCheck.Test.make ~name:"jsonx: parse (to_string v) = Ok v" ~count:500
    (QCheck.make ~print:Jsonx.to_string gen_json)
    (fun v -> Jsonx.parse (Jsonx.to_string v) = Ok v)

let test_jsonx_escape_bytes () =
  (* every JSON output of the project goes through this escaper *)
  check string "escaped bytes" {|"\"\\\n\r\t\u0001"|}
    (Jsonx.to_string (Jsonx.Str "\"\\\n\r\t\x01"))

let test_jsonx_rejects () =
  let bad s =
    match Jsonx.parse s with
    | Ok _ -> fail (Printf.sprintf "accepted %S" s)
    | Error _ -> ()
  in
  bad "{\"a\":1} x";              (* trailing bytes *)
  bad "\"\xff\xfe\"";             (* invalid UTF-8 in a string *)
  bad "{\"a\":";                  (* truncated *)
  bad "[1,]";                     (* dangling comma *)
  bad "\"\\ud800\"";              (* lone surrogate *)
  bad (String.make 70 '[');       (* past the nesting limit *)
  (* ... but 40 levels are fine *)
  match Jsonx.parse (String.make 40 '[' ^ String.make 40 ']') with
  | Ok _ -> ()
  | Error e -> fail e

let test_jsonx_nonfinite_floats () =
  check string "nan prints null" "null" (Jsonx.to_string (Jsonx.Float nan));
  check string "inf prints null" "null"
    (Jsonx.to_string (Jsonx.Float infinity));
  check string "finite float survives" "2.5"
    (Jsonx.to_string (Jsonx.Float 2.5))

let suite =
  [ Alcotest.test_case "vec basic" `Quick test_vec_basic;
    Alcotest.test_case "vec pop" `Quick test_vec_pop;
    Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
    Alcotest.test_case "vec iter/fold" `Quick test_vec_iter_fold;
    QCheck_alcotest.to_alcotest test_vec_roundtrip;
    QCheck_alcotest.to_alcotest test_vec_iter_roundtrip;
    QCheck_alcotest.to_alcotest test_vec_growth;
    Alcotest.test_case "means" `Quick test_means;
    QCheck_alcotest.to_alcotest test_mean_inequality;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "cumulative" `Quick test_cumulative;
    Alcotest.test_case "jsonx: parse/print round trip" `Quick
      test_jsonx_roundtrip;
    QCheck_alcotest.to_alcotest test_jsonx_roundtrip_generated;
    Alcotest.test_case "jsonx: escaper bytes" `Quick test_jsonx_escape_bytes;
    Alcotest.test_case "jsonx: malformed inputs rejected" `Quick
      test_jsonx_rejects;
    Alcotest.test_case "jsonx: non-finite floats print null" `Quick
      test_jsonx_nonfinite_floats ]
