(* Workload [aba_tcp]: closed-loop batches of [instances] concurrent
   byz-strong agreement instances (n = 4) over
   Cluster.run_inproc_cluster on loopback TCP, batching and write
   coalescing on.  This is the agreement-as-a-service hot path and it is
   CPU-bound, so every hot-path lever (poll/writev, coin-share batching,
   domains) shows here.  B stays fixed and moderate: at a few thousand
   instances per batch heap growth, not the protocol, sets the rate. *)

module Aba = Bca_core.Aba
module Types = Bca_core.Types
module Async = Bca_netsim.Async_exec
module Node = Bca_netsim.Node
module Wire = Bca_wire.Wire
module Batch = Bca_wire.Batch
module Rng = Bca_util.Rng
module Value = Bca_util.Value
module Cluster = Bca_transport.Cluster
module Transport = Bca_transport.Transport
module Batcher = Bca_transport.Batcher
open Common

let n = 4

let instances = 512

let spec = Aba.Byz_strong

let cfg = Types.cfg ~n ~t:1

(* Cluster seeds of successive batches; instance seeds and inputs derive
   from them exactly as Cluster derives them. *)
let batch_seeds seed =
  let rng = Rng.create seed in
  fun () -> Rng.int64 rng

let instance_inputs s = Array.init instances (Cluster.instance_inputs ~seed:s ~n)

(* Set-up of one batch: assemble the instances and bind the endpoints. *)
let setup s =
  let seeds = Array.init instances (Cluster.instance_seed ~seed:s) in
  let r =
    Aba.run_custom_many spec ~cfg ~seeds ~inputs:(instance_inputs s)
      ~driver:
        { Aba.drive_many =
            (fun ~wire:_ _ ->
              Result.map (fun (ends, _) -> Array.iter (fun (e : Transport.t) -> e.Transport.close ()) ends)
                (tcp_endpoints ~n)) }
  in
  match r with Ok (Ok ()) -> () | Ok (Error e) | Error e -> failwith e

(* Warm-up: a fixed number of batches, about a second's worth, as in
   Sim. *)
let warm_up seed =
  let next = batch_seeds seed in
  for _ = 1 to 10 do
    let s = next () in
    ignore
      (guard (fun () -> Cluster.run_inproc_cluster ~seed:s ~timeout_s:60. spec ~cfg ~instances ~transport:`Tcp) ())
  done

type plain = {
  p_lats : samples;  (** per-batch wall *)
  p_starts : samples;  (** when each batch started *)
  p_batches : int;
  p_failed : int;  (** instances *)
  p_wall : float;
  p_cpu : float;
  p_words : float;
  p_majors : int;
  p_frames : int;
  p_bytes : int;
  p_writes : int;
  p_nbatches : int;  (** batch frames *)
  p_records : int;
  p_rounds : int;
}

(* The program as users run it: Cluster.run_inproc_cluster, one batch
   after the other, for [seconds], probing the host between batches when
   [host] is given. *)
let run_plain ~host ~seed ~seconds =
  let next = batch_seeds seed in
  let lats = samples () and starts = samples () and batches = ref 0 and failed = ref 0 in
  let frames = ref 0 and bytes = ref 0 and writes = ref 0 and nb = ref 0 and recs = ref 0 in
  let rounds = ref 0 in
  let w0 = Gc.minor_words () and c0 = cpu_s () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now_s () in
  while now_s () -. t0 < seconds do
    Option.iter tick host;
    let s = next () in
    let b0 = now_s () in
    let r =
      guard (fun () -> Cluster.run_inproc_cluster ~seed:s ~timeout_s:60. spec ~cfg ~instances ~transport:`Tcp) ()
    in
    record lats (now_s () -. b0);
    record starts b0;
    incr batches;
    match r with
    | Error _ -> failed := !failed + instances
    | Ok r ->
      let inputs = instance_inputs s in
      Array.iteri
        (fun k v -> if Result.is_error (Checks.aba_decided ~inputs:inputs.(k) v) then incr failed)
        r.Cluster.ir_values;
      frames := !frames + r.Cluster.ir_frames;
      bytes := !bytes + r.Cluster.ir_bytes;
      writes := !writes + r.Cluster.ir_writes;
      nb := !nb + r.Cluster.ir_batches;
      recs := !recs + r.Cluster.ir_records;
      rounds := Array.fold_left ( + ) !rounds r.Cluster.ir_rounds
  done;
  { p_lats = lats;
    p_starts = starts;
    p_batches = !batches;
    p_failed = !failed;
    p_wall = now_s () -. t0;
    p_cpu = cpu_s () -. c0;
    p_words = Gc.minor_words () -. w0;
    p_majors = (Gc.quick_stat ()).Gc.major_collections - m0;
    p_frames = !frames;
    p_bytes = !bytes;
    p_writes = !writes;
    p_nbatches = !nb;
    p_records = !recs;
    p_rounds = !rounds }

(* ---- the traced mirror of Cluster.run_inproc_cluster ----------------- *)

type 'm mnode = {
  me : int;
  wire : 'm Wire.codec;
  nodes : 'm Node.t array;
  net : Transport.t;
  bat : Batcher.t;
  local : (int * int * 'm) Queue.t;
  fin : bool array;
  mutable undecided : int;
}

let send_emits l mn k emits =
  List.iter
    (fun emit ->
      match emit with
      | Node.Broadcast m ->
        Queue.push (k, mn.me, m) mn.local;
        Ledger.enter l Ledger.Batcher_append;
        Batcher.broadcast ~except:mn.me mn.bat ~instance:k ~enc:(fun b -> mn.wire.Wire.enc b m);
        Ledger.leave l
      | Node.Unicast (d, m) ->
        if d = mn.me then Queue.push (k, mn.me, m) mn.local
        else begin
          Ledger.enter l Ledger.Batcher_append;
          Batcher.send mn.bat ~dst:d ~instance:k ~enc:(fun b -> mn.wire.Wire.enc b m);
          Ledger.leave l
        end)
    emits

let check_done mn k =
  if (not mn.fin.(k)) && mn.nodes.(k).Node.terminated () then begin
    mn.fin.(k) <- true;
    mn.undecided <- mn.undecided - 1
  end

let deliver l mn k ~src m =
  send_emits l mn k (Ledger.span l Ledger.Core_receive (mn.nodes.(k).Node.receive ~src) m);
  check_done mn k

let dispatch l mn (v : Wire.view) =
  let drop () = mn.net.Transport.stats.drops <- mn.net.Transport.stats.drops + 1 in
  if v.Wire.v_codec_id <> Batch.codec_id then drop ()
  else begin
    let batch = ref [] in
    let decoded =
      Ledger.span l Ledger.Wire_batch_decode
        (fun () ->
          Batch.iter_view v ~record:(fun ~instance g ->
              if instance >= Array.length mn.nodes then
                raise (Wire.Get.Malformed "batch record: instance id out of range");
              let m = mn.wire.Wire.dec g in
              Wire.Get.expect_end g;
              batch := (instance, m) :: !batch))
        ()
    in
    match decoded with
    | Ok (inner, _) when inner = mn.wire.Wire.id ->
      List.iter (fun (k, m) -> deliver l mn k ~src:v.Wire.v_sender m) (List.rev !batch)
    | Ok _ | Error _ -> drop ()
  end

let make l ~wire ~(insts : _ Aba.instance array) ~(net : Transport.t) =
  let me = net.Transport.me in
  let mn =
    { me;
      wire;
      nodes = Array.map (fun (i : _ Aba.instance) -> Async.node_of i.Aba.i_exec me) insts;
      net;
      bat =
        Ledger.span l Ledger.Batcher_create
          (fun () -> Batcher.create ~inner_codec_id:wire.Wire.id net)
          ();
      local = Queue.create ();
      fin = Array.make (Array.length insts) false;
      undecided = Array.length insts }
  in
  Array.iteri
    (fun k (i : _ Aba.instance) ->
      Ledger.enter l Ledger.Netsim_create;
      let init =
        List.sort (fun a b -> Int.compare a.Async.eid b.Async.eid) (Async.inflight i.Aba.i_exec)
      in
      Ledger.leave l;
      List.iter
        (fun e ->
          if e.Async.src = me then
            if e.Async.dst = me then Queue.push (k, me, e.Async.payload) mn.local
            else begin
              Ledger.enter l Ledger.Batcher_append;
              Batcher.send mn.bat ~dst:e.Async.dst ~instance:k ~enc:(fun b ->
                  wire.Wire.enc b e.Async.payload);
              Ledger.leave l
            end)
        init;
      check_done mn k)
    insts;
  mn

let step l mn =
  let progressed = ref false in
  let drain () =
    while not (Queue.is_empty mn.local) do
      let k, src, m = Queue.pop mn.local in
      deliver l mn k ~src m;
      progressed := true
    done
  in
  drain ();
  (match mn.net.Transport.recv_view ~timeout_s:0. with
  | Some v ->
    dispatch l mn v;
    progressed := true;
    drain ()
  | None -> ());
  Ledger.span l Ledger.Batcher_flush Batcher.flush mn.bat;
  !progressed

type mirror_stats = {
  mutable bind_retries : int;
  mutable idle_sleeps : int;
  mutable frames : int;
  mutable bytes : int;
  mutable retries : int;
  mutable drops : int;
}

(* One batch through the mirrored driver; returns the instances that
   failed their checks. *)
let mirror_batch l polls st s =
  let seeds = Array.init instances (Cluster.instance_seed ~seed:s) in
  let inputs = instance_inputs s in
  let in_driver = ref false in
  Ledger.enter l Ledger.Core_assemble;
  let driver =
    { Aba.drive_many =
        (fun ~wire insts ->
          Ledger.leave l;
          in_driver := true;
          let wire = Ledger.codec l wire in
          match Ledger.span l Ledger.Transport_setup (fun () -> tcp_endpoints ~n) () with
          | Error e -> Error e
          | Ok (ends, retries) ->
            st.bind_retries <- st.bind_retries + retries;
            let nets = Array.map (Ledger.transport l polls) ends in
            let mns = Array.map (fun net -> make l ~wire ~insts ~net) nets in
            let deadline = now_s () +. 60. in
            let rec loop () =
              if Array.for_all (fun mn -> mn.undecided = 0) mns then Ok ()
              else if now_s () >= deadline then Error "mirrored cluster timed out"
              else begin
                let progressed = ref false in
                Array.iter (fun mn -> if step l mn then progressed := true) mns;
                if not !progressed then begin
                  st.idle_sleeps <- st.idle_sleeps + 1;
                  Ledger.span l Ledger.Cluster_idle (fun () -> ignore (Unix.select [] [] [] 0.001)) ()
                end;
                loop ()
              end
            in
            let outcome = guard loop () in
            close_all nets;
            st.frames <- st.frames + sum_stats ends (fun s -> s.Transport.frames_out);
            st.bytes <- st.bytes + sum_stats ends (fun s -> s.Transport.bytes_out);
            st.retries <- st.retries + sum_stats ends (fun s -> s.Transport.retries);
            st.drops <- st.drops + sum_stats ends (fun s -> s.Transport.drops);
            Result.map
              (fun () ->
                Array.fold_left
                  (fun bad (i : _ Aba.instance) ->
                    let commits = Array.map (fun (p : Aba.party) -> p.Aba.committed ()) i.Aba.i_parties in
                    if Result.is_ok (Checks.aba ~inputs:inputs.(i.Aba.i_id) ~commits) then bad else bad + 1)
                  0 insts)
              outcome) }
  in
  let r = guard (fun () -> Aba.run_custom_many spec ~cfg ~seeds ~inputs ~driver) () in
  if not !in_driver then Ledger.leave l;
  match r with
  | Ok (Ok bad) -> bad
  | Ok (Error _) | Error _ ->
    Ledger.abandon l;
    instances

(* Unlike Sim's, the heap peak is read after the timed run: ten warm-up
   batches leave the heap short of its plateau (peaks of 28-37 MB over
   ten seeds), and the timed loop's own samples fit in their first
   buffer and the probes allocate nothing, so the run adds only the
   program's memory.  Batch times are scaled to the reference host
   (Common.probe). *)
let e2e ~seed ~seconds =
  warm_up (Int64.add seed 2L);
  let setup_s, setup_n = setup_median ~reps:31 (let next = batch_seeds (Int64.add seed 1L) in fun () -> setup (next ())) in
  let h = host () in
  let p = run_plain ~host:(Some h) ~seed ~seconds in
  let heap = heap_peak_mb () in
  let lats, busy = scaled_sorted h ~starts:p.p_starts ~times:p.p_lats in
  let decisions = p.p_batches * instances in
  { attempted = decisions;
    failed = p.p_failed;
    metrics =
      [ metric ~samples:setup_n "setup_s" "s" setup_s;
        metric "heap_peak_mb" "MB" heap;
        metric ~samples:decisions "ops_per_s" "1/s" (Float.of_int decisions /. busy);
        metric ~samples:p.p_batches "latency_p50_ms" "ms" (1000. *. percentile lats 0.5);
        metric ~samples:p.p_batches "latency_tail_ms" "ms" (1000. *. percentile lats 0.9) ];
    checks = [];
    params =
      [ ("n", string_of_int n); ("instances_per_batch", string_of_int instances); ("stack", "byz-strong");
        ("latency_tail", "p90 of per-batch wall") ]
      @ scaling_params h ~raw_ops_per_s:(Float.of_int decisions /. p.p_wall) }

(* Mirrored frames and bytes per decision may differ from the untraced
   run's by this much: batch occupancy depends on timing, and tracing
   slows every step. *)
let drift_tolerance_pct = 10.

let traced ~seed ~seconds =
  warm_up (Int64.add seed 2L);
  let reference = run_plain ~host:None ~seed ~seconds in
  let l = Ledger.create () in
  let polls = { Ledger.polls = 0; empty = 0 } in
  let st () = { bind_retries = 0; idle_sleeps = 0; frames = 0; bytes = 0; retries = 0; drops = 0 } in
  ignore (mirror_batch l polls (st ()) (batch_seeds (Int64.add seed 2L) ()));
  Ledger.reset l;
  polls.Ledger.polls <- 0;
  polls.Ledger.empty <- 0;
  let st = st () in
  let next = batch_seeds seed in
  let batches = ref 0 and failed = ref 0 in
  let c0 = cpu_s () in
  let t0 = now_s () in
  while now_s () -. t0 < seconds do
    incr batches;
    failed := !failed + mirror_batch l polls st (next ())
  done;
  let wall = now_s () -. t0 in
  let cpu = cpu_s () -. c0 in
  let decisions = !batches * instances in
  let ref_decisions = Float.of_int (reference.p_batches * instances) in
  let per_dec x = Float.of_int x /. Float.of_int decisions in
  let ref_per_dec x = Float.of_int x /. ref_decisions in
  let frame_drift = drift_pct ~mirror:(per_dec st.frames) ~reference:(ref_per_dec reference.p_frames) in
  let byte_drift = drift_pct ~mirror:(per_dec st.bytes) ~reference:(ref_per_dec reference.p_bytes) in
  let drift = Float.max frame_drift byte_drift in
  { attempted = decisions;
    failed = !failed;
    metrics =
      trace_metrics l ~wall_s:wall
        ~overhead_pct:(100. *. ((cpu /. Float.of_int decisions) /. (reference.p_cpu /. ref_decisions) -. 1.))
        ~drift_pct:drift
      @ [ metric ~samples:decisions "core.receive.calls_per_op" "count"
            (per_dec (Ledger.calls l Ledger.Core_receive));
          metric "core.rounds_per_run" "count" (ref_per_dec reference.p_rounds);
          metric "batcher.records_per_batch" "count"
            (Float.of_int reference.p_records /. Float.of_int (max 1 reference.p_nbatches));
          metric ~samples:polls.Ledger.polls "transport.recv.empty_ratio" "%"
            (100. *. Float.of_int polls.Ledger.empty /. Float.of_int (max 1 polls.Ledger.polls));
          metric "transport.frames_per_decision" "count" (ref_per_dec reference.p_frames);
          metric "transport.bytes_per_decision" "count" (ref_per_dec reference.p_bytes);
          metric "transport.writes_per_decision" "count" (ref_per_dec reference.p_writes);
          metric "transport.frames_per_write" "count"
            (Float.of_int reference.p_frames /. Float.of_int (max 1 reference.p_writes));
          count "transport.retries" st.retries;
          count "transport.drops" st.drops;
          count "transport.bind_retries" st.bind_retries;
          count "cluster.idle_sleeps" st.idle_sleeps;
          metric "gc.alloc_words_per_decision" "count" (reference.p_words /. ref_decisions);
          count "gc.major_collections" reference.p_majors ];
    checks =
      [ explained_check l ~wall_s:wall;
        check "mirror.counts_match" (drift <= drift_tolerance_pct)
          (Printf.sprintf "frames/decision drift %.1f%%, bytes/decision drift %.1f%% (tolerance %.0f%%)"
             frame_drift byte_drift drift_tolerance_pct) ];
    params = [ ("reference_batches", string_of_int reference.p_batches) ] }
