(* Workload [sim]: closed-loop Monte-Carlo runs of Aba.run on the
   random scheduler, one domain, over the six stacks at a small and a
   large n.  This is what the tables, chaos and fuzz campaigns spend their
   time on: the protocol step and the executor do almost all the work;
   wire, batcher and transport do none. *)

module Aba = Bca_core.Aba
module Types = Bca_core.Types
module Async = Bca_netsim.Async_exec
module Node = Bca_netsim.Node
module Rng = Bca_util.Rng
module Value = Bca_util.Value
module Cluster = Bca_transport.Cluster
open Common

type config = { spec : Aba.spec; cfg : Types.cfg }

(* Every stack at n = 4 and n = 10, except the local coin at n = 10: its
   expected round count grows as 2^n, so single runs there take up to a
   tenth of a second and would make the workload about one stack. *)
let configs =
  List.concat_map
    (fun n ->
      List.filter_map
        (fun (_, spec) ->
          match (spec, Aba.spec_mode spec) with
          | Aba.Crash_local, _ when n > 4 -> None
          | _, `Byz -> Some { spec; cfg = Types.cfg ~n ~t:((n - 1) / 3) }
          | _, `Crash -> Some { spec; cfg = Types.cfg ~n ~t:((n - 1) / 2) })
        (Cluster.all_stacks ()))
    [ 4; 10 ]
  |> Array.of_list

type job = { c : config; seed : int64; inputs : Value.t array }

(* The run stream of a seed: configurations round-robin, inputs and run
   seeds drawn from one RNG, so a seed fixes every run's inputs. *)
let jobs seed =
  let rng = Rng.create seed in
  let i = ref 0 in
  fun () ->
    let c = configs.(!i mod Array.length configs) in
    incr i;
    let inputs = Array.init c.cfg.Types.n (fun _ -> Value.of_bool (Rng.bool rng)) in
    { c; seed = Rng.int64 rng; inputs }

let check_run job = function
  | Error e -> Error e
  | Ok (r : Aba.result) -> Checks.aba ~inputs:job.inputs ~commits:(Array.map Option.some r.Aba.commits)

(* Set-up: assemble one instance of every configuration (coin, threshold
   keys, parties) without running it. *)
let setup seed =
  let next = jobs seed in
  Array.iter
    (fun _ ->
      let j = next () in
      ignore
        (Aba.run_custom ~seed:j.seed j.c.spec ~cfg:j.c.cfg ~inputs:j.inputs
           ~driver:{ Aba.drive = (fun ~coin:_ ~wire:_ _ _ -> ()) }))
    configs

(* Warm-up: a fixed number of runs, about a second's worth, of the
   program alone, without the benchmark's bookkeeping, so that the heap
   peak read after it depends on the program and the seed, not on how
   fast the host ran. *)
let warm_up seed =
  let next = jobs seed in
  for _ = 1 to 400 * Array.length configs do
    let j = next () in
    ignore (guard (fun () -> Aba.run ~seed:j.seed j.c.spec ~cfg:j.c.cfg ~inputs:j.inputs) ())
  done

type plain = {
  p_lats : samples;  (** per-run wall *)
  p_starts : samples;  (** when each run started *)
  p_deliveries : int list;  (** per run, in run order *)
  p_runs : int;
  p_failed : int;
  p_wall : float;
  p_cpu : float;
  p_words : float;  (** minor-heap words allocated *)
  p_majors : int;
}

(* The program as users run it: Aba.run back to back for [seconds],
   probing the host between runs when [host] is given. *)
let run_plain ~host ~seed ~seconds =
  let next = jobs seed in
  let lats = samples () and starts = samples () and dels = ref [] and runs = ref 0 and failed = ref 0 in
  let w0 = Gc.minor_words () and c0 = cpu_s () in
  let m0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now_s () in
  while now_s () -. t0 < seconds do
    Option.iter tick host;
    let j = next () in
    let s = now_s () in
    let r = guard (fun () -> Aba.run ~seed:j.seed j.c.spec ~cfg:j.c.cfg ~inputs:j.inputs) () in
    record lats (now_s () -. s);
    record starts s;
    incr runs;
    (match r with Ok r -> dels := r.Aba.deliveries :: !dels | Error _ -> dels := -1 :: !dels);
    if Result.is_error (check_run j r) then incr failed
  done;
  { p_lats = lats;
    p_starts = starts;
    p_deliveries = List.rev !dels;
    p_runs = !runs;
    p_failed = !failed;
    p_wall = now_s () -. t0;
    p_cpu = cpu_s () -. c0;
    p_words = Gc.minor_words () -. w0;
    p_majors = (Gc.quick_stat ()).Gc.major_collections - m0 }

(* Mirror of Aba.run with spans: the instance is assembled by
   Aba.run_custom, then re-hosted in an executor whose nodes time
   [receive], fed the same initial envelopes in the same order, and
   stepped with the same seeded random scheduler - so it delivers exactly
   what Aba.run delivers. *)
let run_mirror l j =
  let in_driver = ref false in
  Ledger.enter l Ledger.Core_assemble;
  let driver =
    { Aba.drive =
        (fun ~coin:_ ~wire:_ exec parties ->
          Ledger.leave l;
          in_driver := true;
          let n = Async.n exec in
          Ledger.enter l Ledger.Netsim_create;
          let init =
            List.sort (fun a b -> Int.compare a.Async.eid b.Async.eid) (Async.inflight exec)
          in
          let exec' =
            Async.create ~n ~make:(fun pid ->
                let node = Async.node_of exec pid in
                let receive ~src m = Ledger.span l Ledger.Core_receive (node.Node.receive ~src) m in
                ( { node with Node.receive },
                  List.filter_map
                    (fun e ->
                      if e.Async.src = pid then Some (Node.Unicast (e.Async.dst, e.Async.payload))
                      else None)
                    init ))
          in
          Ledger.leave l;
          let sched = Async.random_scheduler (Rng.create j.seed) in
          let rec loop () =
            Ledger.enter l Ledger.Netsim_step;
            if Async.all_terminated exec' then (Ledger.leave l; true)
            else if Async.deliveries exec' >= 1_000_000 then (Ledger.leave l; false)
            else
              match Async.step exec' sched with
              | `Delivered _ ->
                Ledger.leave l;
                loop ()
              | `Empty | `Stopped ->
                Ledger.leave l;
                false
          in
          let terminated = loop () in
          ( terminated,
            Async.deliveries exec',
            Array.map (fun (p : Aba.party) -> p.Aba.committed ()) parties,
            Array.fold_left (fun acc (p : Aba.party) -> max acc (p.Aba.round ())) 0 parties ))
    }
  in
  let r = Aba.run_custom ~seed:j.seed j.c.spec ~cfg:j.c.cfg ~inputs:j.inputs ~driver in
  if not !in_driver then Ledger.leave l;
  match r with
  | Error e -> Error e
  | Ok (false, _, _, _) -> Error "run did not terminate"
  | Ok (true, dels, commits, rounds) ->
    Result.map (fun () -> (dels, rounds)) (Checks.aba ~inputs:j.inputs ~commits)

(* The heap peak is read after the warm-up, a stretch of the program
   alone: the per-run samples the timed loop keeps, and the host probes,
   would otherwise count as the program's memory.  Run times are scaled
   to the reference host (Common.probe); runs per second is runs over
   their summed scaled time, so the probes and the loop's own
   bookkeeping are not counted. *)
let e2e ~seed ~seconds =
  warm_up (Int64.add seed 2L);
  let heap = heap_peak_mb () in
  let setup_s, setup_n = setup_median ~reps:31 (fun () -> setup (Int64.add seed 1L)) in
  let h = host () in
  let p = run_plain ~host:(Some h) ~seed ~seconds in
  let lats, busy = scaled_sorted h ~starts:p.p_starts ~times:p.p_lats in
  { attempted = p.p_runs;
    failed = p.p_failed;
    metrics =
      [ metric ~samples:setup_n "setup_s" "s" setup_s;
        metric "heap_peak_mb" "MB" heap;
        metric ~samples:p.p_runs "ops_per_s" "1/s" (Float.of_int p.p_runs /. busy);
        metric ~samples:p.p_runs "latency_p50_ms" "ms" (1000. *. percentile lats 0.5);
        metric ~samples:p.p_runs "latency_tail_ms" "ms" (1000. *. percentile lats 0.99) ];
    checks = [];
    params =
      [ ("configs", string_of_int (Array.length configs)); ("sizes", "4,10");
        ("latency_tail", "p99 of per-run wall") ]
      @ scaling_params h ~raw_ops_per_s:(Float.of_int p.p_runs /. p.p_wall) }

let traced ~seed ~seconds =
  warm_up (Int64.add seed 2L);
  let reference = run_plain ~host:None ~seed ~seconds in
  let l = Ledger.create () in
  let next = jobs (Int64.add seed 2L) in
  for _ = 1 to Array.length configs do
    ignore (run_mirror l (next ()))
  done;
  Ledger.reset l;
  let next = jobs seed in
  let dels = ref [] and rounds = ref 0 and runs = ref 0 and failed = ref 0 in
  let c0 = cpu_s () in
  let t0 = now_s () in
  while now_s () -. t0 < seconds do
    incr runs;
    match guard (run_mirror l) (next ()) with
    | Ok (d, r) ->
      dels := d :: !dels;
      rounds := !rounds + r
    | Error _ ->
      Ledger.abandon l;
      dels := -1 :: !dels;
      incr failed
  done;
  let wall = now_s () -. t0 in
  let cpu = cpu_s () -. c0 in
  (* the mirror replays the same run stream: its delivery count must match
     the untraced run's, run for run *)
  let mirror_dels = List.rev !dels in
  let rec compare_prefix a b mism total_ref total_mir =
    match (a, b) with
    | x :: a', y :: b' ->
      compare_prefix a' b' (if x = y then mism else mism + 1) (total_ref + x) (total_mir + y)
    | _ -> (mism, total_ref, total_mir)
  in
  let mismatched, dref, dmir = compare_prefix reference.p_deliveries mirror_dels 0 0 0 in
  let drift = drift_pct ~mirror:(Float.of_int dmir) ~reference:(Float.of_int dref) in
  let total_dels = List.fold_left ( + ) 0 (List.filter (fun d -> d > 0) reference.p_deliveries) in
  let per_run = Float.of_int !runs in
  { attempted = !runs;
    failed = !failed;
    metrics =
      trace_metrics l ~wall_s:wall
        ~overhead_pct:(100. *. ((cpu /. per_run) /. (reference.p_cpu /. Float.of_int reference.p_runs) -. 1.))
        ~drift_pct:drift
      @ [ metric ~samples:!runs "core.receive.calls_per_op" "count"
            (Float.of_int (Ledger.calls l Ledger.Core_receive) /. per_run);
          metric ~samples:!runs "netsim.deliveries_per_run" "count"
            (Float.of_int (List.fold_left ( + ) 0 mirror_dels) /. per_run);
          metric ~samples:!runs "core.rounds_per_run" "count" (Float.of_int !rounds /. per_run);
          metric ~samples:reference.p_runs "gc.alloc_words_per_delivery" "count"
            (reference.p_words /. Float.of_int (max 1 total_dels));
          count "gc.major_collections" reference.p_majors ];
    checks =
      [ explained_check l ~wall_s:wall;
        check "mirror.deliveries_match"
          (mismatched = 0)
          (Printf.sprintf "%d of the first %d runs delivered a different count than Aba.run (tolerance 0)"
             mismatched
             (min (List.length mirror_dels) reference.p_runs)) ];
    params = [ ("reference_runs", string_of_int reference.p_runs) ] }
