(** Per-destination batch assembly over a {!Transport.t}.

    The write half of the batched hot path: messages from many concurrent
    protocol instances are encoded straight into per-destination record
    regions ([Bca_wire.Batch]); a region is framed and handed to the
    transport when the {!policy} fires.  Three flush triggers:

    - {e count}: the open batch reaches [max_records];
    - {e size}: its record region reaches [max_bytes];
    - {e explicit}: the executor finished a scheduling slice and calls
      {!flush} so no message waits on future traffic.

    Purely deterministic - no clocks, no timers: flush timing is a
    function of the call sequence, which keeps batched runs reproducible
    and this module suppression-free under [bca lint]'s strict profile.

    The encode path is allocation-light by construction: message bodies
    stage in one reusable scratch buffer, record regions live in per-peer
    buffers that are cleared (not freed) on flush, and a batch body
    assembles in one batcher-owned buffer that
    [Bca_wire.Wire.encode_raw_buffer] copies straight into the frame.  The
    framed string is the one allocation per {e batch}, amortized over
    every record in it.

    When built with a tracer, emits [Bca_obs.Event.Transport] events per
    flush: op ["flush"] carrying the framed batch size in bytes and op
    ["batch"] carrying the record count (occupancy) - the feed for the
    metrics histograms ([Bca_obs.Metrics]). *)

type policy = {
  max_records : int;  (** flush an open batch at this many records *)
  max_bytes : int;  (** ... or when its record region reaches this size *)
}

val policy : ?max_records:int -> ?max_bytes:int -> unit -> policy
(** Defaults: 64 records, 32 KiB.  Raises [Invalid_argument] if either
    bound is below 1. *)

val immediate : policy
(** One record per frame - batching disabled.  With the transport's
    [coalesce:false] this is the per-message baseline the cluster bench
    compares against. *)

type stats = {
  mutable batches : int;  (** batch frames handed to the transport *)
  mutable records : int;  (** messages across all batches *)
  mutable count_flushes : int;
  mutable size_flushes : int;
  mutable explicit_flushes : int;
  mutable max_occupancy : int;  (** largest record count in one batch *)
}

val stats_zero : unit -> stats

type t

val create :
  ?tracer:Bca_obs.Trace.t -> ?policy:policy -> inner_codec_id:int -> Transport.t -> t
(** A batcher over [net] whose records all decode with the stack codec
    [inner_codec_id].  Raises [Invalid_argument] if the id is out of range
    or the batch id itself. *)

val send : t -> dst:int -> instance:int -> enc:(Buffer.t -> unit) -> unit
(** Append one record ([enc] writes the message body into the scratch
    buffer) to [dst]'s open batch, flushing it if the policy fires.  May
    therefore call the transport (and its backpressure). *)

val broadcast : ?except:int -> t -> instance:int -> enc:(Buffer.t -> unit) -> unit
(** {!send} to every destination, encoding the body {e once}; [except]
    skips one pid (the caller's own, which takes local delivery). *)

val flush_dst : t -> int -> unit
(** Explicitly flush one destination's open batch (no-op when empty). *)

val flush : t -> unit
(** Explicitly flush every destination. *)

val pending : t -> int
(** Records buffered but not yet flushed, across all destinations. *)

val stats : t -> stats
