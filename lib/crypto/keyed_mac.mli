(** The 64-bit keyed hash behind the simulated signature schemes.

    A tag is folded byte by byte through SplitMix64: each byte reseeds a
    one-shot generator from the running accumulator plus the byte plus a
    scheme-specific [salt], and takes its first output; the tag length is
    folded in last the same way.  {!Threshold} uses salt 131 and {!Digsig}
    977, so the two schemes' MACs differ on every tag.  Tamper-evident for
    simulation purposes; not cryptography.

    The fold is computed inline on unboxed 64-bit words: a call allocates
    only its boxed result, whatever the tag length. *)

val hash : salt:int -> int64 -> string -> int64
(** [hash ~salt secret tag]. *)
