(** Shared protocol types: configurations, crusader values, graded decisions.

    These mirror the paper's vocabulary: a crusader protocol may decide a
    binary value or the special [Bot] ("bottom") value; a graded protocol
    decides one of the five ordered buckets of Definition 3.2. *)

type pid = int

type cfg = {
  n : int;  (** number of parties *)
  t : int;  (** upper bound on faulty parties *)
}
(** System configuration.  Crash protocols require [n >= 2t + 1]; Byzantine
    protocols require [n >= 3t + 1]. *)

val cfg : n:int -> t:int -> cfg
(** Checked constructor: positive [n], [0 <= t < n]. *)

val quorum : cfg -> int
(** [n - t], the size of every "received from n - t parties" wait. *)

val check_crash_resilience : cfg -> unit
(** Raises [Invalid_argument] unless [n >= 2t + 1]. *)

val check_byz_resilience : cfg -> unit
(** Raises [Invalid_argument] unless [n >= 3t + 1]. *)

(** A crusader value: a binary value or bottom. *)
type cvalue = Val of Bca_util.Value.t | Bot

val cval : Bca_util.Value.t -> cvalue
(** [cval v] is [Val v], returned as one of two statically allocated
    constants: the protocol step builds it without allocating. *)

val cvalue_equal : cvalue -> cvalue -> bool

val cvalue_compare : cvalue -> cvalue -> int
(** Total order: [Bot] first, then values in {!Bca_util.Value.compare} order. *)

val pp_cvalue : Format.formatter -> cvalue -> unit

(** A graded decision, Definition 3.2's five buckets: [G2 v] = "v grade 2"
    (high confidence, safe to commit), [G1 v] = "v grade 1" (adopt v but do
    not commit), [G0] = "bottom grade 0" (adopt the coin). *)
type gdecision = G2 of Bca_util.Value.t | G1 of Bca_util.Value.t | G0

val gdecision_equal : gdecision -> gdecision -> bool
val pp_gdecision : Format.formatter -> gdecision -> unit

val gdecision_value : gdecision -> cvalue
(** Forget the grade: [G2 v] and [G1 v] map to [Val v], [G0] to [Bot]. *)
