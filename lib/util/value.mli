(** Binary protocol values.

    Every agreement problem in the paper is over the binary domain [{0, 1}]
    (Section 2: "we only consider Asynchronous Agreement with binary input").
    We represent the two values as a dedicated variant rather than [bool] so
    that protocol code reads like the pseudocode ([v] / [1 - v]) and so the
    type checker separates protocol values from ordinary booleans. *)

type t = V0 | V1

val negate : t -> t
(** [negate v] is the paper's [1 - v]. *)

val of_bool : bool -> t
(** [of_bool true] = [V1], [of_bool false] = [V0]. *)

val to_bool : t -> bool
(** Inverse of {!of_bool}. *)

val to_int : t -> int
(** 0 or 1. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val mem : t -> t list -> bool
(** [mem v vs] is [List.mem v vs] without the polymorphic comparison. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val both : t list
(** [both] = [[V0; V1]], handy for exhaustive enumeration in tests. *)
