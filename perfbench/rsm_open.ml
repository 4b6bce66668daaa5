(* Workload [rsm_open]: open-loop submissions at a fixed rate, well below
   saturation, to Cluster.run_rsm_loadgen over TCP under an emulated
   one-way hop, window 4.  This is the replicated log's service latency.
   It is bound by wire round trips, so window, batching and round-count
   changes show here, while a pure CPU saving in core or transport should
   predict no change.  The log uses the transport differently from
   aba_tcp: one frame per message, no Batcher. *)

module Types = Bca_core.Types
module Wire = Bca_wire.Wire
module Cluster = Bca_transport.Cluster
module Transport = Bca_transport.Transport
module Rsm = Bca_rsm.Rsm
open Common

let n = 4

let cfg = Types.cfg ~n ~t:1

let window = 4

let batch = { Rsm.max_txs = 64; max_bytes = 64 * 1024 }

let tx_bytes = 48

let rate = 4000.

let hop_s = 0.002

(* Fewest one-way hops on an epoch's critical path: three for the
   proposal's reliable broadcast (send, echo, ready) and four for the
   fastest binary agreement (unanimous input, decided in its first
   round).  With [window] epochs in flight, epochs cannot commit faster
   than one per [floor_hops * hop_s / window] seconds.  Today's epochs
   run about three times slower than that. *)
let floor_hops = 7

(* Log length: enough epochs that, even at the hop-bound floor, the log
   cannot end before the last scheduled submission has committed.  Sized
   from today's epoch rate instead, a faster change would end the log
   early and show up as failed operations. *)
let log_epochs ~seconds =
  int_of_float (Float.ceil (seconds *. Float.of_int window /. (Float.of_int floor_hops *. hop_s)))
  + (2 * window)

let total ~seconds = int_of_float (rate *. seconds)

let params ~seed ~epochs = Rsm.mk_params ~cfg ~coin_seed:seed ~epochs ~window ~batch ()

(* A run is cut into segments of about [segment_s] seconds of
   submissions, each a fresh log with its own coin seed drawn from the
   run seed.  Latency depends on the coin outcomes a seed draws, and the
   log keeps every committed epoch's state, so several short logs give
   steadier percentiles and a smaller heap than one long one; latency
   figures are medians over segments. *)
let segment_s = 1.

let segments ~seed ~seconds =
  let k = max 1 (int_of_float (Float.round (seconds /. segment_s))) in
  let rng = Bca_util.Rng.create seed in
  List.init k (fun _ -> (Bca_util.Rng.int64 rng, seconds /. Float.of_int k))

let attempted ~seed ~seconds =
  List.fold_left (fun a (_, secs) -> a + total ~seconds:secs) 0 (segments ~seed ~seconds)

(* Transaction [i], the same bytes Cluster.run_rsm_loadgen submits. *)
let tx i =
  let head = Printf.sprintf "t%08d" i in
  head ^ String.make (max 0 (tx_bytes - String.length head)) '.'

(* Set-up: bind the endpoints and create the replicas. *)
let setup ~seed ~epochs =
  match tcp_endpoints ~n with
  | Error e -> failwith e
  | Ok (ends, _) ->
    Array.iter (fun (e : Transport.t) -> ignore (Rsm.create (params ~seed ~epochs) ~me:e.Transport.me)) ends;
    Array.iter (fun (e : Transport.t) -> e.Transport.close ()) ends

type plain = {
  p_segs : Cluster.rsm_load_result list;  (** the segments that completed *)
  p_failed : int;
  p_cpu : float;
  p_words : float;
  p_majors : int;
  p_wall : float;
}

(* The program as users run it, one Cluster.run_rsm_loadgen per segment.
   Note that run_rsm_loadgen stamps a transaction's latency from when it
   was injected, not from when it was due; the traced mirror stamps from
   the due time, and loadgen.lag_p99_pct shows the gap between the two. *)
let run_plain segs =
  let w0 = Gc.minor_words () and c0 = cpu_s () and t0 = now_s () in
  let m0 = (Gc.quick_stat ()).Gc.major_collections in
  let segs, failed =
    List.fold_left
      (fun (segs, failed) (s, secs) ->
        let total = total ~seconds:secs in
        let load = { Cluster.lg_rate = rate; lg_total = total; lg_tx_bytes = tx_bytes } in
        match
          guard
            (fun () ->
              Cluster.run_rsm_loadgen ~hop_s ~timeout_s:120.
                (params ~seed:s ~epochs:(log_epochs ~seconds:secs))
                ~load ~transport:`Tcp)
            ()
        with
        | Error _ -> (segs, failed + total)
        | Ok r -> (r :: segs, failed + abs (total - r.Cluster.lr_committed)))
      ([], 0) segs
  in
  { p_segs = List.rev segs;
    p_failed = failed;
    p_cpu = cpu_s () -. c0;
    p_words = Gc.minor_words () -. w0;
    p_majors = (Gc.quick_stat ()).Gc.major_collections - m0;
    p_wall = now_s () -. t0 }

let sum_segs f segs = List.fold_left (fun a r -> a + f r) 0 segs

(* ---- the traced mirror of Cluster.run_rsm_loadgen -------------------- *)

type rnode = {
  me : int;
  rsm : Rsm.t;
  net : Transport.t;
  local : Rsm.msg Queue.t;
  scratch : Buffer.t;
  outq : (float * string) Queue.t;  (** due time, encoded frame *)
}

type mstats = {
  mutable rejected : int;
  mutable inject_lags : float list;
  mutable release_lags : float list;
  mutable pending : (float * int) list;  (** (time since start, queued txs) *)
  mutable buffered_max : int;
  mutable idle_sleeps : int;
}

let send_due st rn =
  let now = now_s () in
  let rec go () =
    match Queue.peek_opt rn.outq with
    | Some (due, s) when due <= now ->
      ignore (Queue.pop rn.outq);
      st.release_lags <- (now -. due) :: st.release_lags;
      for d = 0 to n - 1 do
        if d <> rn.me then rn.net.Transport.send ~dst:d s
      done;
      go ()
    | _ -> ()
  in
  go ()

let emits l rn msgs =
  List.iter
    (fun m ->
      let s =
        Ledger.span l Ledger.Wire_encode
          (Wire.encode_buf Bca_rsm.Wirefmt.rsm ~sender:rn.me ~scratch:rn.scratch)
          m
      in
      Queue.push m rn.local;
      Queue.push (now_s () +. hop_s, s) rn.outq)
    msgs

let handle l rn ~from m = emits l rn (Ledger.span l Ledger.Rsm_handle (Rsm.handle rn.rsm ~from) m)

let drain l rn =
  while not (Queue.is_empty rn.local) do
    handle l rn ~from:rn.me (Queue.pop rn.local)
  done

let step l st rn =
  send_due st rn;
  drain l rn;
  match rn.net.Transport.recv ~timeout_s:0. with
  | Some f ->
    (match Ledger.span l Ledger.Wire_decode (Wire.decode_body Bca_rsm.Wirefmt.rsm) f with
    | Ok m -> handle l rn ~from:f.Wire.sender m
    | Error _ -> rn.net.Transport.stats.drops <- rn.net.Transport.stats.drops + 1);
    drain l rn;
    true
  | None -> false

type mirror = {
  m_failed : int;
  m_lats : float list;  (** commit at replica 0 minus due time *)
  m_epochs : int;
  m_nonempty : int;  (** epochs that carried transactions, up to the last one *)
  m_epochs_to_last : int;  (** epochs committed when the last transaction did *)
  m_committed : int;
  m_frames : int;
  m_bytes : int;
  m_retries : int;
  m_drops : int;
  m_bind_retries : int;
  m_wall : float;
  m_cpu : float;
  m_st : mstats;
}

let run_mirror l polls ~seed ~seconds =
  let total = total ~seconds in
  let epochs = log_epochs ~seconds in
  let st =
    { rejected = 0; inject_lags = []; release_lags = []; pending = []; buffered_max = 0; idle_sleeps = 0 }
  in
  let w0 = now_s () and c0 = cpu_s () in
  match Ledger.span l Ledger.Transport_setup (fun () -> tcp_endpoints ~n) () with
  | Error _ ->
    None
  | Ok (ends, bind_retries) ->
    let due_of = Hashtbl.create total in
    let lats = ref [] and committed = ref 0 and ecount = ref 0 and nonempty = ref 0 in
    let epochs_to_last = ref 0 in
    let on_commit ~epoch:_ txs =
      let now = now_s () in
      incr ecount;
      if txs <> [] && !committed < total then incr nonempty;
      List.iter
        (fun tx ->
          incr committed;
          if !committed = total then epochs_to_last := !ecount;
          match Hashtbl.find_opt due_of tx with Some d -> lats := (now -. d) :: !lats | None -> ())
        txs
    in
    let rns =
      Array.map
        (fun (ep : Transport.t) ->
          let net = Ledger.transport l polls ep in
          let me = ep.Transport.me in
          let on_commit = if me = 0 then Some on_commit else None in
          let rsm, init = Ledger.span l Ledger.Rsm_create (fun () -> Rsm.create ?on_commit (params ~seed ~epochs) ~me) () in
          let rn = { me; rsm; net; local = Queue.create (); scratch = Buffer.create 256; outq = Queue.create () } in
          emits l rn init;
          rn)
        ends
    in
    let t0 = now_s () in
    let deadline = t0 +. 170. in
    let injected = ref 0 and next_sample = ref t0 in
    let inject_due now =
      let any = ref false in
      while !injected < total && now -. t0 >= Float.of_int !injected /. rate do
        let i = !injected in
        let due = t0 +. (Float.of_int i /. rate) in
        let x = tx i in
        st.inject_lags <- (now -. due) :: st.inject_lags;
        if Ledger.span l Ledger.Rsm_submit (Rsm.submit rns.(i mod n).rsm) x then Hashtbl.replace due_of x due
        else st.rejected <- st.rejected + 1;
        incr injected;
        any := true
      done;
      !any
    in
    let sample now =
      if now >= !next_sample && now -. t0 < seconds then begin
        next_sample := now +. 0.05;
        let q = Array.fold_left (fun a rn -> a + Rsm.pending_txs rn.rsm) 0 rns in
        st.pending <- (now -. t0, q) :: st.pending;
        Array.iter (fun rn -> st.buffered_max <- max st.buffered_max (Rsm.buffered_msgs rn.rsm)) rns
      end
    in
    let rec loop () =
      if Array.for_all (fun rn -> Rsm.terminated rn.rsm) rns then true
      else begin
        let now = now_s () in
        if now >= deadline then false
        else begin
          sample now;
          let progressed = ref (inject_due now) in
          Array.iter (fun rn -> if step l st rn then progressed := true) rns;
          if not !progressed then begin
            st.idle_sleeps <- st.idle_sleeps + 1;
            Ledger.span l Ledger.Cluster_idle (fun () -> ignore (Unix.select [] [] [] 0.0005)) ()
          end;
          loop ()
        end
      end
    in
    let finished = match guard (fun () -> Ok (loop ())) () with Ok f -> f | Error _ -> Ledger.abandon l; false in
    let nets = Array.map (fun rn -> rn.net) rns in
    close_all nets;
    let failed =
      Ledger.span l Ledger.Rsm_check
        (fun () ->
          if not finished then total
          else
            Checks.rsm ~scheduled:(Array.init total tx) ~logs:(Array.map (fun rn -> Rsm.log rn.rsm) rns))
        ()
    in
    Some
      { m_failed = failed;
        m_lats = !lats;
        m_epochs = !ecount;
        m_nonempty = !nonempty;
        m_epochs_to_last = !epochs_to_last;
        m_committed = !committed;
        m_frames = sum_stats ends (fun s -> s.Transport.frames_out);
        m_bytes = sum_stats ends (fun s -> s.Transport.bytes_out);
        m_retries = sum_stats ends (fun s -> s.Transport.retries);
        m_drops = sum_stats ends (fun s -> s.Transport.drops);
        m_bind_retries = bind_retries;
        m_wall = now_s () -. w0;
        m_cpu = cpu_s () -. c0;
        m_st = st }

(* The submission queues must not grow across the run: the mean backlog
   over the last third of the submission window may not exceed twice the
   first third's plus one full proposal per replica. *)
let pending_check (samples : (float * int) list) ~seconds =
  let third lo hi =
    let xs = List.filter_map (fun (t, q) -> if t >= lo && t < hi then Some (Float.of_int q) else None) samples in
    if xs = [] then 0. else List.fold_left ( +. ) 0. xs /. Float.of_int (List.length xs)
  in
  let first = third 0. (seconds /. 3.) and last = third (2. *. seconds /. 3.) seconds in
  let limit = (2. *. first) +. Float.of_int (n * batch.Rsm.max_txs) in
  check "rsm.pending_txs_bounded" (last <= limit)
    (Printf.sprintf "mean queued txs %.1f in the first third, %.1f in the last (limit %.1f)" first last limit)

let warm_up ~seed =
  let load = { Cluster.lg_rate = rate; lg_total = 256; lg_tx_bytes = tx_bytes } in
  ignore (Cluster.run_rsm_loadgen ~hop_s ~timeout_s:30. (params ~seed ~epochs:(3 * window)) ~load ~transport:`Tcp)

let e2e ~seed ~seconds =
  let epochs = log_epochs ~seconds:segment_s in
  let setup_s, setup_n = setup_median ~reps:31 (fun () -> setup ~seed ~epochs) in
  warm_up ~seed:(Int64.add seed 2L);
  let p = run_plain (segments ~seed ~seconds) in
  let committed = sum_segs (fun r -> r.Cluster.lr_committed) p.p_segs in
  let duration = List.fold_left (fun a r -> a +. r.Cluster.lr_duration_s) 0. p.p_segs in
  let seg_median f = if p.p_segs = [] then Float.nan else median (List.map f p.p_segs) in
  { attempted = attempted ~seed ~seconds;
    failed = p.p_failed;
    metrics =
      [ metric ~samples:setup_n "setup_s" "s" setup_s;
        metric "heap_peak_mb" "MB" (heap_peak_mb ());
        metric ~samples:committed "ops_per_s" "1/s" (Float.of_int committed /. duration);
        metric ~samples:committed "latency_p50_ms" "ms" (seg_median (fun r -> r.Cluster.lr_p50_ms));
        metric ~samples:committed "latency_tail_ms" "ms" (seg_median (fun r -> r.Cluster.lr_p99_ms)) ];
    checks = [];
    params =
      [ ("rate_tx_per_s", Printf.sprintf "%.0f" rate);
        ("segments", string_of_int (List.length (segments ~seed ~seconds)));
        ("log_epochs_per_segment", string_of_int epochs); ("window", string_of_int window);
        ("batch_txs", string_of_int batch.Rsm.max_txs); ("tx_bytes", string_of_int tx_bytes);
        ("hop_ms", Printf.sprintf "%.1f" (hop_s *. 1000.));
        ("latency", "submit-to-commit at replica 0; p50 and p99 per segment, median over segments");
        ("segment_p99_ms", String.concat "," (List.map (fun r -> Printf.sprintf "%.1f" r.Cluster.lr_p99_ms) p.p_segs));
        ("run_wall_s", Printf.sprintf "%.2f" p.p_wall) ] }

(* Per-transaction frames and bytes of the mirror may differ from the
   untraced run's by this much (the trailing empty epochs are the same in
   both; the protocol's message count varies a little with timing). *)
let drift_tolerance_pct = 5.

let traced ~seed ~seconds =
  warm_up ~seed:(Int64.add seed 2L);
  (* the untraced reference gives per-transaction counts and CPU; half of
     the segments are enough for that and keep the run short *)
  let segs = segments ~seed ~seconds in
  let reference = run_plain (List.filteri (fun i _ -> 2 * i < List.length segs) segs) in
  let l = Ledger.create () in
  let polls = { Ledger.polls = 0; empty = 0 } in
  let mirrors = List.map (fun (s, secs) -> (secs, run_mirror l polls ~seed:s ~seconds:secs)) segs in
  let done_ = List.filter_map (fun (secs, m) -> Option.map (fun m -> (secs, m)) m) mirrors in
  let attempted = attempted ~seed ~seconds in
  if reference.p_segs = [] || done_ = [] then
    { attempted;
      failed = attempted;
      metrics = [];
      checks = [ check "rsm.runs_completed" false "no untraced or mirrored segment completed" ];
      params = [] }
  else begin
    let ms = List.map snd done_ in
    let msum f = List.fold_left (fun a m -> a + f m) 0 ms in
    let lost = List.fold_left (fun a (secs, m) -> if m = None then a + total ~seconds:secs else a) 0 mirrors in
    let committed = sum_segs (fun r -> r.Cluster.lr_committed) reference.p_segs in
    let m_committed = msum (fun m -> m.m_committed) in
    let per_tx x = Float.of_int x /. Float.of_int (max 1 committed) in
    let mir_per_tx x = Float.of_int x /. Float.of_int (max 1 m_committed) in
    let frame_drift =
      drift_pct ~mirror:(mir_per_tx (msum (fun m -> m.m_frames)))
        ~reference:(per_tx (sum_segs (fun r -> r.Cluster.lr_frames) reference.p_segs))
    in
    let byte_drift =
      drift_pct ~mirror:(mir_per_tx (msum (fun m -> m.m_bytes)))
        ~reference:(per_tx (sum_segs (fun r -> r.Cluster.lr_bytes) reference.p_segs))
    in
    let drift = Float.max frame_drift byte_drift in
    let all f = List.concat_map (fun m -> f m.m_st) ms in
    let p99_pct xs = 100. *. percentile (sorted_of_list xs) 0.99 /. hop_s in
    let wall = List.fold_left (fun a m -> a +. m.m_wall) 0. ms in
    let cpu = List.fold_left (fun a m -> a +. m.m_cpu) 0. ms in
    let pending = List.map (fun (secs, m) -> pending_check m.m_st.pending ~seconds:secs) done_ in
    let lats = sorted_of_list (List.concat_map (fun m -> m.m_lats) ms) in
    { attempted;
      failed = lost + msum (fun m -> m.m_failed);
      metrics =
        trace_metrics l ~wall_s:wall
          ~overhead_pct:
            (100. *. ((cpu /. Float.of_int (max 1 m_committed)) /. (reference.p_cpu /. Float.of_int (max 1 committed)) -. 1.))
          ~drift_pct:drift
        @ [ count "rsm.submit.rejected" (msum (fun m -> m.m_st.rejected));
            count "rsm.epochs" (msum (fun m -> m.m_epochs));
            metric "rsm.txs_per_epoch" "count" (Float.of_int m_committed /. Float.of_int (max 1 (msum (fun m -> m.m_nonempty))));
            metric ~samples:(msum (fun m -> m.m_epochs_to_last)) "rsm.nonempty_epoch_ratio" "%"
              (100. *. Float.of_int (msum (fun m -> m.m_nonempty)) /. Float.of_int (max 1 (msum (fun m -> m.m_epochs_to_last))));
            count ~samples:(List.length (all (fun st -> st.pending))) "rsm.pending_txs.max"
              (List.fold_left (fun a (_, q) -> max a q) 0 (all (fun st -> st.pending)));
            count "rsm.buffered_msgs.max" (List.fold_left (fun a m -> max a m.m_st.buffered_max) 0 ms);
            metric "transport.frames_per_tx" "count" (per_tx (sum_segs (fun r -> r.Cluster.lr_frames) reference.p_segs));
            metric "transport.bytes_per_tx" "count" (per_tx (sum_segs (fun r -> r.Cluster.lr_bytes) reference.p_segs));
            metric "transport.writes_per_tx" "count" (per_tx (sum_segs (fun r -> r.Cluster.lr_writes) reference.p_segs));
            metric ~samples:polls.Ledger.polls "transport.recv.empty_ratio" "%"
              (100. *. Float.of_int polls.Ledger.empty /. Float.of_int (max 1 polls.Ledger.polls));
            count "transport.retries" (msum (fun m -> m.m_retries));
            count "transport.drops" (msum (fun m -> m.m_drops));
            count "transport.bind_retries" (msum (fun m -> m.m_bind_retries));
            count "cluster.idle_sleeps" (msum (fun m -> m.m_st.idle_sleeps));
            metric ~samples:(List.length (all (fun st -> st.release_lags))) "hop.release_lag_p99_pct" "%"
              (p99_pct (all (fun st -> st.release_lags)));
            metric ~samples:(List.length (all (fun st -> st.inject_lags))) "loadgen.lag_p99_pct" "%"
              (p99_pct (all (fun st -> st.inject_lags)));
            metric "gc.alloc_words_per_tx" "count" (reference.p_words /. Float.of_int (max 1 committed));
            count "gc.major_collections" reference.p_majors ];
      checks =
        [ explained_check l ~wall_s:wall;
          check "rsm.pending_txs_bounded" (List.for_all (fun c -> c.c_ok) pending)
            (String.concat "; " (List.map (fun c -> c.c_detail) pending));
          check "mirror.counts_match" (drift <= drift_tolerance_pct)
            (Printf.sprintf "frames/tx drift %.1f%%, bytes/tx drift %.1f%% (tolerance %.0f%%)" frame_drift
               byte_drift drift_tolerance_pct) ];
      params =
        [ ("mirror_commit_p50_ms_from_due", Printf.sprintf "%.3f" (1000. *. percentile lats 0.5));
          ("mirror_commit_p99_ms_from_due", Printf.sprintf "%.3f" (1000. *. percentile lats 0.99));
          ("segments", string_of_int (List.length mirrors)) ] }
  end
