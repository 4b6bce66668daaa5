(* Benchmark entry point.

     bench.exe run --workload sim|aba_tcp|rsm_open --seed N --seconds S --trace 0|1
     bench.exe selftest

   [run] prints a record line ({"record": ...}: parameters, checks and
   every metric with its sample count) and, last, the result line
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones, measured on the program as users run
   it; with --trace 1 they are the per-layer ones, from a mirrored,
   span-timed driver run next to an untraced reference run.  Exits 1 when
   an output or accounting check fails.  [selftest] runs the fixtures
   showing that the output checks catch broken runs. *)

open Common

let end_to_end =
  [ ("setup_s", "s"); ("heap_peak_mb", "MB"); ("ops_per_s", "1/s"); ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms") ]

(* Every workload prints every per-layer metric; a layer that does no
   work on a workload reads 0 there. *)
let per_layer =
  [ ("trace.wall_s", "s"); ("trace.overhead_pct", "%"); ("trace.explained_pct", "%");
    ("mirror.drift_pct", "%") ]
  @ List.map (fun s -> (Ledger.name s ^ ".self_pct", "%")) reported_spans
  @ [ ("core.receive.calls_per_op", "count"); ("netsim.deliveries_per_run", "count");
      ("core.rounds_per_run", "count"); ("gc.alloc_words_per_delivery", "count");
      ("batcher.records_per_batch", "count"); ("transport.recv.empty_ratio", "%");
      ("transport.frames_per_decision", "count"); ("transport.bytes_per_decision", "count");
      ("transport.writes_per_decision", "count"); ("transport.frames_per_write", "count");
      ("transport.retries", "count"); ("transport.drops", "count");
      ("transport.bind_retries", "count"); ("cluster.idle_sleeps", "count");
      ("gc.alloc_words_per_decision", "count"); ("gc.major_collections", "count");
      ("rsm.submit.rejected", "count"); ("rsm.epochs", "count"); ("rsm.txs_per_epoch", "count");
      ("rsm.nonempty_epoch_ratio", "%"); ("rsm.pending_txs.max", "count");
      ("rsm.buffered_msgs.max", "count"); ("transport.frames_per_tx", "count");
      ("transport.bytes_per_tx", "count"); ("transport.writes_per_tx", "count");
      ("hop.release_lag_p99_pct", "%"); ("loadgen.lag_p99_pct", "%");
      ("gc.alloc_words_per_tx", "count") ]

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number m =
  if not (Float.is_finite m.value) then "null"
  else if m.integer then Printf.sprintf "%.0f" m.value
  else Printf.sprintf "%.17g" m.value

let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* The metric list a mode must print, in catalogue order; absent
   per-layer metrics read 0, an unknown or mis-united one is a bug. *)
let complete ~catalogue (ms : metric list) =
  List.iter
    (fun m ->
      match List.assoc_opt m.name catalogue with
      | Some u when u = m.unit_ -> ()
      | _ -> failwith (Printf.sprintf "metric %s (%s) is not in the catalogue" m.name m.unit_))
    ms;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) ms with
      | Some m -> m
      | None -> { name; unit_; value = 0.; samples = 0; integer = unit_ = "count" })
    catalogue

let run ~workload ~seed ~seconds ~trace =
  let r =
    match (workload, trace) with
    | "sim", false -> Sim.e2e ~seed ~seconds
    | "sim", true -> Sim.traced ~seed ~seconds
    | "aba_tcp", false -> Aba_tcp.e2e ~seed ~seconds
    | "aba_tcp", true -> Aba_tcp.traced ~seed ~seconds
    | "rsm_open", false -> Rsm_open.e2e ~seed ~seconds
    | "rsm_open", true -> Rsm_open.traced ~seed ~seconds
    | w, _ -> failwith ("unknown workload " ^ w)
  in
  let metrics = complete ~catalogue:(if trace then per_layer else end_to_end) r.metrics in
  let correct =
    r.failed = 0 && r.attempted > 0
    && List.for_all (fun c -> c.c_ok) r.checks
    && List.for_all (fun m -> Float.is_finite m.value) metrics
  in
  let record =
    obj
      [ ("workload", json_string workload); ("seed", Int64.to_string seed);
        ("trace", if trace then "1" else "0"); ("seconds", Printf.sprintf "%g" seconds);
        ("ocaml", json_string Sys.ocaml_version);
        ("params", obj (List.map (fun (k, v) -> (k, json_string v)) r.params));
        ( "checks",
          "["
          ^ String.concat ", "
              (List.map
                 (fun c ->
                   obj
                     [ ("name", json_string c.c_name); ("ok", string_of_bool c.c_ok);
                       ("detail", json_string c.c_detail) ])
                 r.checks)
          ^ "]" );
        ( "metrics",
          obj
            (List.map
               (fun m ->
                 ( m.name,
                   obj
                     [ ("value", json_number m); ("unit", json_string m.unit_);
                       ("samples", string_of_int m.samples) ] ))
               metrics) ) ]
  in
  print_endline (obj [ ("record", record) ]);
  print_endline
    (obj
       [ ("correct", string_of_bool correct); ("attempted", string_of_int r.attempted);
         ("failed", string_of_int r.failed);
         ( "metrics",
           obj
             (List.map
                (fun m -> (m.name, obj [ ("value", json_number m); ("unit", json_string m.unit_) ]))
                metrics) ) ]);
  if not correct then exit 1

let usage () =
  prerr_endline
    "usage: bench.exe run --workload sim|aba_tcp|rsm_open --seed N --seconds S --trace 0|1\n\
    \       bench.exe selftest";
  exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "selftest" ] -> (
    match Checks.selftest () with
    | [] -> print_endline "selftest: every broken output was caught"
    | missed ->
      List.iter (fun m -> prerr_endline ("selftest: NOT caught: " ^ m)) missed;
      exit 1)
  | "run" :: args ->
    let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
    let rec parse = function
      | "--workload" :: v :: rest ->
        workload := Some v;
        parse rest
      | "--seed" :: v :: rest ->
        seed := Int64.of_string_opt v;
        parse rest
      | "--seconds" :: v :: rest ->
        seconds := Float.of_string_opt v;
        parse rest
      | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := Some (v = "1");
        parse rest
      | [] -> ()
      | _ -> usage ()
    in
    parse args;
    (match (!workload, !seed, !seconds, !trace) with
    | Some workload, Some seed, Some seconds, Some trace when seconds > 0. ->
      run ~workload ~seed ~seconds ~trace
    | _ -> usage ())
  | _ -> usage ()
