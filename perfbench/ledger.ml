(* Per-layer span ledger for the traced runs.

   Spans are recorded from outside the library, around calls into each
   layer's public functions.  A span's self time is its duration minus the
   time covered by the spans opened inside it, so the self times of all
   spans add up to at most the traced wall time; what is left over is the
   driver loop's own glue, which the accounting check bounds. *)

type span =
  | Core_assemble  (** Aba.run_custom[_many] assembly: coin, keys, parties *)
  | Core_receive  (** Node.receive of one protocol message *)
  | Netsim_create  (** Async_exec.create / inflight around an instance *)
  | Netsim_step  (** Async_exec.step plus the termination check *)
  | Wirefmt_enc  (** stack body codec, encode *)
  | Wirefmt_dec  (** stack body codec, decode *)
  | Wire_batch_decode  (** Batch.iter_view *)
  | Wire_encode  (** Wire.encode_buf: frame, CRC and RSM body *)
  | Wire_decode  (** Wire.decode_body of an RSM frame *)
  | Batcher_append  (** Batcher.send / broadcast *)
  | Batcher_flush  (** Batcher.flush *)
  | Batcher_create
  | Transport_setup  (** port pick, bind and listen of n endpoints *)
  | Transport_send
  | Transport_recv
  | Transport_flush
  | Transport_close
  | Cluster_idle  (** the driver's sleep when no message moved *)
  | Rsm_create
  | Rsm_submit
  | Rsm_handle
  | Rsm_check  (** end-of-run log read-out at every replica *)

let all =
  [| Core_assemble; Core_receive; Netsim_create; Netsim_step; Wirefmt_enc; Wirefmt_dec;
     Wire_batch_decode; Wire_encode; Wire_decode; Batcher_append; Batcher_flush;
     Batcher_create; Transport_setup; Transport_send; Transport_recv; Transport_flush;
     Transport_close; Cluster_idle; Rsm_create; Rsm_submit; Rsm_handle; Rsm_check |]

let index = function
  | Core_assemble -> 0
  | Core_receive -> 1
  | Netsim_create -> 2
  | Netsim_step -> 3
  | Wirefmt_enc -> 4
  | Wirefmt_dec -> 5
  | Wire_batch_decode -> 6
  | Wire_encode -> 7
  | Wire_decode -> 8
  | Batcher_append -> 9
  | Batcher_flush -> 10
  | Batcher_create -> 11
  | Transport_setup -> 12
  | Transport_send -> 13
  | Transport_recv -> 14
  | Transport_flush -> 15
  | Transport_close -> 16
  | Cluster_idle -> 17
  | Rsm_create -> 18
  | Rsm_submit -> 19
  | Rsm_handle -> 20
  | Rsm_check -> 21

let name = function
  | Core_assemble -> "core.assemble"
  | Core_receive -> "core.receive"
  | Netsim_create -> "netsim.create"
  | Netsim_step -> "netsim.step"
  | Wirefmt_enc -> "wirefmt.enc"
  | Wirefmt_dec -> "wirefmt.dec"
  | Wire_batch_decode -> "wire.batch_decode"
  | Wire_encode -> "wire.encode"
  | Wire_decode -> "wire.decode"
  | Batcher_append -> "batcher.append"
  | Batcher_flush -> "batcher.flush"
  | Batcher_create -> "batcher.create"
  | Transport_setup -> "transport.setup"
  | Transport_send -> "transport.send"
  | Transport_recv -> "transport.recv"
  | Transport_flush -> "transport.flush"
  | Transport_close -> "transport.close"
  | Cluster_idle -> "cluster.idle"
  | Rsm_create -> "rsm.create"
  | Rsm_submit -> "rsm.submit"
  | Rsm_handle -> "rsm.handle"
  | Rsm_check -> "rsm.check"

let max_depth = 64

type t = {
  self_ns : int array;
  calls : int array;
  stack_id : int array;
  stack_t0 : int array;
  stack_child : int array;  (* time covered by already-closed children *)
  mutable depth : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create () =
  let k = Array.length all in
  { self_ns = Array.make k 0;
    calls = Array.make k 0;
    stack_id = Array.make max_depth 0;
    stack_t0 = Array.make max_depth 0;
    stack_child = Array.make max_depth 0;
    depth = 0 }

(* Drop every open span: after an exception escaped a traced call, the
   run has failed and the open spans' time is not attributed. *)
let abandon l = l.depth <- 0

let reset l =
  Array.fill l.self_ns 0 (Array.length l.self_ns) 0;
  Array.fill l.calls 0 (Array.length l.calls) 0;
  l.depth <- 0

let enter l s =
  let d = l.depth in
  l.stack_id.(d) <- index s;
  l.stack_child.(d) <- 0;
  l.depth <- d + 1;
  l.stack_t0.(d) <- now_ns ()

let leave l =
  let t = now_ns () in
  let d = l.depth - 1 in
  let dur = t - l.stack_t0.(d) in
  let id = l.stack_id.(d) in
  l.self_ns.(id) <- l.self_ns.(id) + dur - l.stack_child.(d);
  l.calls.(id) <- l.calls.(id) + 1;
  l.depth <- d;
  if d > 0 then l.stack_child.(d - 1) <- l.stack_child.(d - 1) + dur

(* [span l s f x] times [f x] under [s]; an exception closes the span
   before it propagates, so the stack stays balanced. *)
let span l s f x =
  enter l s;
  match f x with
  | v ->
    leave l;
    v
  | exception e ->
    leave l;
    raise e

let self_s l s = Float.of_int l.self_ns.(index s) /. 1e9

let calls l s = l.calls.(index s)

let explained_s l = Float.of_int (Array.fold_left ( + ) 0 l.self_ns) /. 1e9

(* Wrap a stack codec so its encode and decode are spans of their own. *)
let codec l (c : 'm Bca_wire.Wire.codec) =
  { c with
    Bca_wire.Wire.enc = (fun b m -> span l Wirefmt_enc (c.Bca_wire.Wire.enc b) m);
    dec = (fun g -> span l Wirefmt_dec c.Bca_wire.Wire.dec g) }

(* Polls of [recv]/[recv_view], and how many returned nothing. *)
type polls = { mutable polls : int; mutable empty : int }

(* Wrap a transport endpoint: [send], [recv], [recv_view], [flush] and
   [close] become spans; the stats record is shared with the endpoint. *)
let transport l (p : polls) (net : Bca_transport.Transport.t) =
  let count = function
    | None ->
      p.polls <- p.polls + 1;
      p.empty <- p.empty + 1
    | Some _ -> p.polls <- p.polls + 1
  in
  { net with
    Bca_transport.Transport.send =
      (fun ~dst s ->
        enter l Transport_send;
        net.Bca_transport.Transport.send ~dst s;
        leave l);
    recv =
      (fun ~timeout_s ->
        let r = span l Transport_recv (fun t -> net.Bca_transport.Transport.recv ~timeout_s:t) timeout_s in
        count r;
        r);
    recv_view =
      (fun ~timeout_s ->
        let r =
          span l Transport_recv (fun t -> net.Bca_transport.Transport.recv_view ~timeout_s:t) timeout_s
        in
        count r;
        r);
    flush = (fun ~timeout_s -> span l Transport_flush (fun t -> net.Bca_transport.Transport.flush ~timeout_s:t) timeout_s);
    close = (fun () -> span l Transport_close net.Bca_transport.Transport.close ()) }
