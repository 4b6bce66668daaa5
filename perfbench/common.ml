(* Shared plumbing: clocks, statistics, result records and the TCP
   endpoint set-up the mirrored socket drivers use. *)

module Transport = Bca_transport.Transport

let now_s () = Float.of_int (Ledger.now_ns ()) /. 1e9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Nearest-rank percentile of an ascending array, [q] in [0, 1]. *)
let percentile sorted q =
  let k = Array.length sorted in
  if k = 0 then Float.nan
  else sorted.(max 0 (min (k - 1) (int_of_float (Float.ceil (q *. Float.of_int k)) - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l = percentile (sorted_of_list l) 0.5

(* Per-operation durations in an unboxed, growable array, so recording
   them adds little garbage-collector work to the measured loop. *)
type samples = { mutable buf : Float.Array.t; mutable len : int }

let samples () = { buf = Float.Array.create 4096; len = 0 }

let record s x =
  if s.len = Float.Array.length s.buf then begin
    let b = Float.Array.create (2 * s.len) in
    Float.Array.blit s.buf 0 b 0 s.len;
    s.buf <- b
  end;
  Float.Array.set s.buf s.len x;
  s.len <- s.len + 1

let sorted s =
  let a = Array.init s.len (Float.Array.get s.buf) in
  Array.sort Float.compare a;
  a

(* ---- host-speed normalisation ------------------------------------------

   The benchmark runs on a few vCPUs of a shared host whose speed drifts.
   On a 2-vCPU host a fixed pure-CPU loop, timed over half-second
   stretches, ran between 0.45x and 1.3x its median rate, in phases of
   seconds that come and go on each vCPU separately, while the process
   was on CPU throughout (no steal time to subtract).  A CPU-bound time
   taken raw moves with those phases as much as with the program.

   So the CPU-bound timings run a fixed probe - a short deterministic
   routine that calls none of the program's code - between operations,
   about every [probe_every_s], and scale each operation's time to a
   host that runs the probe in [probe_ref_s]: by (probe_ref_s / p) **
   [sensitivity], p the median probe time within [probe_window_s] of the
   operation's start.  The exponent is there because the program slows
   more than the probe does: over 1-second bins of four 90-120 s traces
   (two of sim, two of aba_tcp), the log-log slope of median operation
   time against probe time was 1.27 to 1.73, at correlations of 0.83 to
   0.93; [sensitivity] is their mean.  A change to the program moves the
   scaled figures by its own effect; the host's phases move them much
   less. *)

let probe_every_s = 0.1

let probe_window_s = 0.5

let probe_ref_s = 0.0015

let sensitivity = 1.5

let probe_buf = Array.make 8192 0

(* About 1.5 ms of multiply-add arithmetic and scattered reads and writes
   to a 64 KiB array.  It allocates nothing, so it never runs a garbage
   collection and no collector work of the program is charged to it. *)
let probe () =
  let t0 = now_s () in
  let x = ref 1 in
  for _ = 1 to 100 do
    for i = 0 to 8191 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let j = (!x lsr 7) land 8191 in
      probe_buf.(j) <- probe_buf.(j) + i
    done
  done;
  ignore (Sys.opaque_identity !x);
  now_s () -. t0

(* The probes of one timed loop: when each ran and how long it took. *)
type host = { at : samples; took : samples; mutable next : float }

let host () = { at = samples (); took = samples (); next = Float.neg_infinity }

let probe_now h =
  let t = now_s () in
  let d = probe () in
  record h.at t;
  record h.took d;
  h.next <- t +. probe_every_s

(* Probes the host if [probe_every_s] has passed since the last probe. *)
let tick h = if now_s () >= h.next then probe_now h

(* Factor that brings a time measured at [t] to the reference host, from
   the median probe within [probe_window_s] of [t], or the nearest probe
   when none is that close. *)
let speed_scale h t =
  let at i = Float.Array.get h.at.buf i in
  (* first probe at or after [x] *)
  let rec first lo hi x =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if at mid < x then first (mid + 1) hi x else first lo mid x
  in
  let lo = first 0 h.at.len (t -. probe_window_s) and hi = first 0 h.at.len (t +. probe_window_s) in
  let lo, hi =
    if hi > lo then (lo, hi)
    else if lo >= h.at.len then (h.at.len - 1, h.at.len)
    else (lo, lo + 1)
  in
  (probe_ref_s /. median (List.init (hi - lo) (fun k -> Float.Array.get h.took.buf (lo + k))))
  ** sensitivity

(* Times of a timed loop, scaled to the reference host: [starts] and
   [times] are parallel, [starts] ascending. *)
let normalised h ~starts ~times =
  Array.init times.len (fun i ->
      Float.Array.get times.buf i *. speed_scale h (Float.Array.get starts.buf i))

(* The scaled times of a timed loop, ascending, and their sum. *)
let scaled_sorted h ~starts ~times =
  let a = normalised h ~starts ~times in
  let sum = Array.fold_left ( +. ) 0. a in
  Array.sort Float.compare a;
  (a, sum)

(* Record entries that say how a run's times were scaled. *)
let scaling_params h ~raw_ops_per_s =
  [ ( "timing",
      Printf.sprintf "scaled by (%.1f ms / probe) ** %g" (1000. *. probe_ref_s) sensitivity );
    ("probe_median_ms", Printf.sprintf "%.3f" (1000. *. percentile (sorted h.took) 0.5));
    ("raw_ops_per_s", Printf.sprintf "%.1f" raw_ops_per_s) ]

(* Highest heap size of the process so far; each workload runs in its
   own process, so this is that workload's peak. *)
let heap_peak_mb () =
  Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : int;  (** observations the value summarises *)
  integer : bool;  (** printed without a fractional part *)
}

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples; integer = false }

let count ?(samples = 1) name value =
  { name; unit_ = "count"; value = Float.of_int value; samples; integer = true }

type check = { c_name : string; c_ok : bool; c_detail : string }

let check c_name c_ok c_detail = { c_name; c_ok; c_detail }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  checks : check list;
  params : (string * string) list;  (** workload parameters, for the record *)
}

(* An exception escaping the program is a failed operation, not a
   crashed benchmark. *)
let guard f x = try f x with e -> Error (Printexc.to_string e)

(* [reps] set-ups, each timed alone and scaled to the reference host,
   after one untimed to fault in code and heap; the median is the
   reported figure.  Probes run in a group before and after the set-ups,
   and between them only every [probe_every_s], so that a probe does not
   cool the caches before every set-up. *)
let setup_median ~reps f =
  f ();
  let h = host () and starts = samples () and times = samples () in
  for _ = 1 to 5 do
    probe_now h
  done;
  for _ = 1 to reps do
    tick h;
    let t0 = now_s () in
    f ();
    record starts t0;
    record times (now_s () -. t0)
  done;
  for _ = 1 to 5 do
    probe_now h
  done;
  (percentile (fst (scaled_sorted h ~starts ~times)) 0.5, reps)

(* Picks [n] loopback ports and binds an endpoint on each.  A port taken
   between pick and bind (EADDRINUSE) is retried with fresh ports, up to
   three attempts, as Cluster does; the retries are returned, not treated
   as failures. *)
let tcp_endpoints ~n =
  let rec go attempt retries =
    let addrs = Transport.Socket.tcp_addrs ~ports:(Transport.Socket.pick_tcp_ports ~n) in
    let ends = ref [] in
    match
      for me = 0 to n - 1 do
        ends :=
          Transport.Socket.endpoint ~coalesce:true ~max_queue_bytes:(8 * 1024 * 1024) ~addrs ~me ()
          :: !ends
      done
    with
    | () -> Ok (Array.of_list (List.rev !ends), retries)
    | exception Unix.Unix_error (e, fn, _) ->
      List.iter (fun (ep : Transport.t) -> ep.Transport.close ()) !ends;
      if e = Unix.EADDRINUSE && attempt < 3 then go (attempt + 1) (retries + 1)
      else Error (Printf.sprintf "endpoint setup failed: %s: %s" fn (Unix.error_message e))
  in
  go 1 0

let close_all ends =
  Array.iter (fun (ep : Transport.t) -> ignore (ep.Transport.flush ~timeout_s:0.5)) ends;
  Array.iter (fun (ep : Transport.t) -> ep.Transport.close ()) ends

let sum_stats ends f = Array.fold_left (fun a (ep : Transport.t) -> a + f ep.Transport.stats) 0 ends

(* Relative difference in percent of a mirrored count against the
   untraced run's. *)
let drift_pct ~mirror ~reference =
  if reference = 0. then (if mirror = 0. then 0. else 100.)
  else 100. *. Float.abs (mirror -. reference) /. reference

(* The spans whose self time is reported, as a share of traced wall.
   Every span counts toward the explained share. *)
let reported_spans =
  Ledger.
    [ Core_assemble; Core_receive; Netsim_step; Wirefmt_enc; Wirefmt_dec; Wire_batch_decode;
      Wire_encode; Wire_decode; Batcher_append; Batcher_flush; Transport_setup; Transport_send;
      Transport_recv; Cluster_idle; Rsm_submit; Rsm_handle ]

let explained_pct l ~wall_s = 100. *. Ledger.explained_s l /. wall_s

(* Spans must explain this share of traced wall; less points to a layer
   the mirror does not time. *)
let explained_floor_pct = 80.

let explained_check l ~wall_s =
  let e = explained_pct l ~wall_s in
  check "trace.explained" (e >= explained_floor_pct)
    (Printf.sprintf "spans explain %.1f%% of traced wall (floor %.0f%%)" e explained_floor_pct)

let trace_metrics l ~wall_s ~overhead_pct ~drift_pct =
  [ metric "trace.wall_s" "s" wall_s;
    metric "trace.overhead_pct" "%" overhead_pct;
    metric "trace.explained_pct" "%" (explained_pct l ~wall_s);
    metric "mirror.drift_pct" "%" drift_pct ]
  @ List.map
      (fun s ->
        metric ~samples:(Ledger.calls l s)
          (Ledger.name s ^ ".self_pct")
          "%"
          (100. *. Ledger.self_s l s /. wall_s))
      reported_spans
