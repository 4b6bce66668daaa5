(* Unit and property tests for the bca_util substrate. *)

module Rng = Bca_util.Rng
module Value = Bca_util.Value
module Quorum = Bca_util.Quorum
module Summary = Bca_util.Summary
module Tablefmt = Bca_util.Tablefmt

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_distinct_seeds () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.int64 a) (Rng.int64 b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_rng_bool_balance () =
  let rng = Rng.create 9L in
  let trues = ref 0 in
  let total = 10_000 in
  for _ = 1 to total do
    if Rng.bool rng then incr trues
  done;
  let frac = float_of_int !trues /. float_of_int total in
  Alcotest.(check bool) "roughly balanced" true (frac > 0.45 && frac < 0.55)

let test_rng_float_range () =
  let rng = Rng.create 11L in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_split_independent () =
  let parent = Rng.create 5L in
  let child = Rng.split parent in
  let x = Rng.int64 child and y = Rng.int64 parent in
  Alcotest.(check bool) "split streams differ" true (not (Int64.equal x y))

let test_rng_shuffle_permutation () =
  let rng = Rng.create 13L in
  let xs = List.init 20 Fun.id in
  let ys = Rng.shuffle rng xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare ys)

let test_rng_pick_arr_matches_pick () =
  (* pick_arr must consume the stream exactly like pick on the same data *)
  let a = Rng.create 77L and b = Rng.create 77L in
  let xs = List.init 23 Fun.id in
  let arr = Array.of_list xs in
  for _ = 1 to 200 do
    Alcotest.(check int) "same element" (Rng.pick a xs) (Rng.pick_arr b arr)
  done

let test_rng_int_unbiased_bounds () =
  let rng = Rng.create 31L in
  List.iter
    (fun bound ->
      for _ = 1 to 500 do
        let x = Rng.int_unbiased rng bound in
        Alcotest.(check bool) "in range" true (x >= 0 && x < bound)
      done)
    [ 1; 2; 7; 17; 1 lsl 30; max_int ]

let test_rng_int_unbiased_uniform () =
  (* 3 buckets, 30k draws: each bucket within 5% of a third *)
  let rng = Rng.create 5L in
  let counts = Array.make 3 0 in
  let total = 30_000 in
  for _ = 1 to total do
    let k = Rng.int_unbiased rng 3 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int total in
      Alcotest.(check bool) "roughly a third" true (frac > 0.30 && frac < 0.37))
    counts

let test_min_heap () =
  let module H = Bca_util.Min_heap in
  let h = H.create () in
  Alcotest.(check bool) "empty" true (H.is_empty h);
  List.iter (H.push h) [ 5; 1; 9; 3; 7; 0; 8; 2; 6; 4 ];
  Alcotest.(check int) "length" 10 (H.length h);
  Alcotest.(check (option int)) "peek" (Some 0) (H.peek_min h);
  let drained = List.init 10 (fun _ -> Option.get (H.pop_min h)) in
  Alcotest.(check (list int)) "sorted drain" (List.init 10 Fun.id) drained;
  Alcotest.(check (option int)) "drained" None (H.pop_min h)

let heap_model =
  QCheck2.Test.make ~count:300 ~name:"min-heap drains sorted"
    QCheck2.Gen.(list (int_bound 1000))
    (fun xs ->
      let module H = Bca_util.Min_heap in
      let h = H.create ~capacity:1 () in
      List.iter (H.push h) xs;
      let rec drain acc = match H.pop_min h with None -> List.rev acc | Some x -> drain (x :: acc) in
      drain [] = List.sort compare xs)

let test_value_negate () =
  Alcotest.(check bool) "negate 0" true (Value.equal (Value.negate Value.V0) Value.V1);
  Alcotest.(check bool) "negate 1" true (Value.equal (Value.negate Value.V1) Value.V0);
  List.iter
    (fun v ->
      Alcotest.(check bool) "involution" true (Value.equal (Value.negate (Value.negate v)) v))
    Value.both

let test_value_bool_roundtrip () =
  List.iter
    (fun b -> Alcotest.(check bool) "roundtrip" b Value.(to_bool (of_bool b)))
    [ true; false ]

let test_quorum_add_first () =
  let q = Quorum.create ~n:10 in
  Alcotest.(check bool) "first counts" true (Quorum.add_first q ~pid:1 "a");
  Alcotest.(check bool) "second from same sender ignored" false (Quorum.add_first q ~pid:1 "b");
  Alcotest.(check int) "count a" 1 (Quorum.count q "a");
  Alcotest.(check int) "count b" 0 (Quorum.count q "b");
  Alcotest.(check int) "senders" 1 (Quorum.senders q)

let test_quorum_add_value () =
  let q = Quorum.create ~n:10 in
  Alcotest.(check bool) "first" true (Quorum.add_value q ~pid:1 "a");
  Alcotest.(check bool) "same pair ignored" false (Quorum.add_value q ~pid:1 "a");
  Alcotest.(check bool) "new value same sender counts" true (Quorum.add_value q ~pid:1 "b");
  Alcotest.(check int) "count a" 1 (Quorum.count q "a");
  Alcotest.(check int) "count b" 1 (Quorum.count q "b");
  Alcotest.(check int) "one sender" 1 (Quorum.senders q)

let test_quorum_all_equal () =
  let q = Quorum.create ~n:10 in
  Alcotest.(check bool) "empty" true (Quorum.all_equal q = None);
  ignore (Quorum.add_first q ~pid:1 "x" : bool);
  ignore (Quorum.add_first q ~pid:2 "x" : bool);
  Alcotest.(check bool) "all x" true (Quorum.all_equal q = Some "x");
  ignore (Quorum.add_first q ~pid:3 "y" : bool);
  Alcotest.(check bool) "mixed" true (Quorum.all_equal q = None)

let test_quorum_count_if () =
  let q = Quorum.create ~n:10 in
  ignore (Quorum.add_first q ~pid:1 3 : bool);
  ignore (Quorum.add_first q ~pid:2 5 : bool);
  ignore (Quorum.add_first q ~pid:3 4 : bool);
  Alcotest.(check int) "odd senders" 2 (Quorum.count_if q (fun v -> v mod 2 = 1))

let test_quorum_senders_of () =
  let q = Quorum.create ~n:10 in
  ignore (Quorum.add_first q ~pid:4 "v" : bool);
  ignore (Quorum.add_first q ~pid:2 "v" : bool);
  ignore (Quorum.add_first q ~pid:9 "w" : bool);
  Alcotest.(check (list int)) "senders of v" [ 2; 4 ]
    (List.sort compare (Quorum.senders_of q "v"))

let quorum_model =
  (* add_first against a reference association-list model *)
  QCheck2.Test.make ~count:500 ~name:"quorum add_first matches model"
    QCheck2.Gen.(list (pair (int_bound 8) (int_bound 3)))
    (fun ops ->
      let q = Quorum.create ~n:10 in
      let model = Hashtbl.create 8 in
      List.iter
        (fun (pid, v) ->
          let counted = Quorum.add_first q ~pid v in
          let expect = not (Hashtbl.mem model pid) in
          if expect then Hashtbl.replace model pid v;
          if counted <> expect then QCheck2.Test.fail_report "add_first mismatch")
        ops;
      List.for_all
        (fun v ->
          Quorum.count q v
          = Hashtbl.fold (fun _ v' acc -> if v = v' then acc + 1 else acc) model 0)
        [ 0; 1; 2; 3 ])

(* Differential test of the dense quorum against the hashed reference
   model it replaced (test/helpers/quorum_ref.ml): random add_first /
   add_value sequences, including pids outside [0, n), must produce the
   same return values and the same observable state.  Out-of-range pids
   must be rejected without raising and never reach the model. *)
let quorum_differential (type v) ~name ~(gen : v QCheck2.Gen.t) ~(universe : v list)
    ~(print : v -> string) =
  let module Ref = Bca_test_helpers.Quorum_ref in
  let n = 7 in
  let op_gen = QCheck2.Gen.(triple bool (int_range (-3) (n + 2)) gen) in
  let print_op (first, pid, v) =
    Printf.sprintf "%s(%d,%s)" (if first then "first" else "value") pid (print v)
  in
  QCheck2.Test.make ~count:400 ~name
    ~print:QCheck2.Print.(list print_op)
    QCheck2.Gen.(list_size (int_bound 40) op_gen)
    (fun ops ->
      let q = Quorum.create ~n and m = Ref.create () in
      List.iter
        (fun (first, pid, v) ->
          let got = if first then Quorum.add_first q ~pid v else Quorum.add_value q ~pid v in
          let expect =
            Bca_util.Bounds.index_ok ~len:n pid
            && if first then Ref.add_first m ~pid v else Ref.add_value m ~pid v
          in
          if got <> expect then
            QCheck2.Test.fail_reportf "%s: dense %b, model %b" (print_op (first, pid, v)) got expect)
        ops;
      let same_state q =
        let set xs = List.sort_uniq compare xs in
        let parity v = Hashtbl.hash v land 1 = 0 in
        Quorum.senders q = Ref.senders m
        && Quorum.entries q = Ref.entries m
        && Quorum.all_equal q = Ref.all_equal m
        && set (Quorum.values q) = set (Ref.values m)
        && Quorum.count_if q parity = Ref.count_if m parity
        && List.for_all
             (fun v ->
               Quorum.count q v = Ref.count m v && Quorum.senders_of q v = Ref.senders_of m v)
             universe
        && List.for_all
             (fun pid ->
               Quorum.mem_sender q ~pid = (Bca_util.Bounds.index_ok ~len:n pid && Ref.mem_sender m ~pid))
             (List.init (n + 6) (fun i -> i - 3))
      in
      (* a copy taken now must read the same, and stay put when the
         original moves on *)
      let snapshot = Quorum.copy q in
      List.iter (fun pid -> List.iter (fun v -> ignore (Quorum.add_value q ~pid v : bool)) universe)
        (List.init n Fun.id);
      same_state snapshot)

let quorum_differential_value =
  quorum_differential ~name:"Value.t matches hashed model"
    ~gen:(QCheck2.Gen.oneofl Value.both) ~universe:Value.both ~print:Value.to_string

let quorum_differential_cvalue =
  let module Types = Bca_core.Types in
  let universe = [ Types.Val Value.V0; Types.Val Value.V1; Types.Bot ] in
  (* build fresh boxes so equality cannot lean on physical identity *)
  let gen =
    QCheck2.Gen.map
      (function 0 -> Types.Val (Value.of_bool false) | 1 -> Types.Val (Value.of_bool true) | _ -> Types.Bot)
      (QCheck2.Gen.int_bound 2)
  in
  quorum_differential ~name:"cvalue matches hashed model" ~gen ~universe
    ~print:(Format.asprintf "%a" Types.pp_cvalue)

let quorum_differential_string =
  (* Bracha's payloads: strings, built fresh per message *)
  let universe = [ "a"; "b"; "c"; "" ] in
  let gen = QCheck2.Gen.map (fun s -> String.init (String.length s) (String.get s)) (QCheck2.Gen.oneofl universe) in
  quorum_differential ~name:"string matches hashed model" ~gen ~universe
    ~print:(Printf.sprintf "%S")

let test_quorum_rejects_out_of_range () =
  let q = Quorum.create ~n:4 in
  List.iter
    (fun pid ->
      Alcotest.(check bool) "add_first rejected" false (Quorum.add_first q ~pid "x");
      Alcotest.(check bool) "add_value rejected" false (Quorum.add_value q ~pid "x");
      Alcotest.(check bool) "not a sender" false (Quorum.mem_sender q ~pid))
    [ -1; min_int; 4; 5; max_int ];
  Alcotest.(check int) "no sender credited" 0 (Quorum.senders q);
  Alcotest.(check int) "no tally" 0 (Quorum.count q "x");
  Alcotest.(check bool) "edge pid counts" true (Quorum.add_first q ~pid:3 "x")

let test_summary_mean () =
  let s = Summary.of_floats [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Summary.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Summary.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Summary.max;
  Alcotest.(check int) "runs" 4 s.Summary.runs

let test_summary_stddev () =
  let s = Summary.of_floats [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  (* Bessel-corrected sample stddev of this classic set is ~2.138 *)
  Alcotest.(check bool) "stddev" true (abs_float (s.Summary.stddev -. 2.138) < 0.01)

let test_summary_within () =
  let s = Summary.of_ints [ 7; 7; 7 ] in
  Alcotest.(check bool) "within" true (Summary.within s ~expected:7.0 ~tol:0.1);
  Alcotest.(check bool) "not within" false (Summary.within s ~expected:8.0 ~tol:0.5)

let test_histogram () =
  let h = Bca_util.Histogram.of_floats [ 5.0; 5.0; 7.0; 9.0; 5.0 ] in
  Alcotest.(check int) "mode" 5 (Bca_util.Histogram.mode h);
  Alcotest.(check int) "median" 5 (Bca_util.Histogram.percentile h 0.5);
  Alcotest.(check int) "p99" 9 (Bca_util.Histogram.percentile h 0.99);
  let rendered = Format.asprintf "%a" Bca_util.Histogram.pp h in
  Alcotest.(check bool) "renders three buckets" true
    (List.length (String.split_on_char '\n' rendered) >= 3)

let test_tablefmt_shape () =
  let out = Tablefmt.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "33"; "4" ] ] in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines);
  Alcotest.(check bool) "raises on ragged rows" true
    (try
       ignore (Tablefmt.render ~header:[ "a" ] [ [ "1"; "2" ] ] : string);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "util"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "distinct seeds" `Quick test_rng_distinct_seeds;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "bool balance" `Quick test_rng_bool_balance;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick_arr matches pick" `Quick test_rng_pick_arr_matches_pick;
          Alcotest.test_case "int_unbiased bounds" `Quick test_rng_int_unbiased_bounds;
          Alcotest.test_case "int_unbiased uniform" `Quick test_rng_int_unbiased_uniform ] );
      ( "min_heap",
        [ Alcotest.test_case "basic" `Quick test_min_heap;
          QCheck_alcotest.to_alcotest heap_model ] );
      ( "value",
        [ Alcotest.test_case "negate" `Quick test_value_negate;
          Alcotest.test_case "bool roundtrip" `Quick test_value_bool_roundtrip ] );
      ( "quorum",
        [ Alcotest.test_case "add_first" `Quick test_quorum_add_first;
          Alcotest.test_case "add_value" `Quick test_quorum_add_value;
          Alcotest.test_case "all_equal" `Quick test_quorum_all_equal;
          Alcotest.test_case "count_if" `Quick test_quorum_count_if;
          Alcotest.test_case "senders_of" `Quick test_quorum_senders_of;
          Alcotest.test_case "out-of-range pids rejected" `Quick test_quorum_rejects_out_of_range;
          QCheck_alcotest.to_alcotest quorum_model;
          QCheck_alcotest.to_alcotest quorum_differential_value;
          QCheck_alcotest.to_alcotest quorum_differential_cvalue;
          QCheck_alcotest.to_alcotest quorum_differential_string ] );
      ( "summary",
        [ Alcotest.test_case "mean/min/max" `Quick test_summary_mean;
          Alcotest.test_case "stddev" `Quick test_summary_stddev;
          Alcotest.test_case "within" `Quick test_summary_within ] );
      ("histogram", [ Alcotest.test_case "mode/percentile" `Quick test_histogram ]);
      ("tablefmt", [ Alcotest.test_case "shape" `Quick test_tablefmt_shape ]) ]
