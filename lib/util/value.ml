type t = V0 | V1

let negate = function V0 -> V1 | V1 -> V0
let of_bool b = if b then V1 else V0
let to_bool = function V0 -> false | V1 -> true
let to_int = function V0 -> 0 | V1 -> 1
let equal a b = match (a, b) with V0, V0 | V1, V1 -> true | _ -> false
let compare a b = Int.compare (to_int a) (to_int b)
let rec mem v = function [] -> false | x :: rest -> equal v x || mem v rest
let to_string = function V0 -> "0" | V1 -> "1"
let pp ppf v = Format.pp_print_string ppf (to_string v)
let both = [ V0; V1 ]
