module Value = Bca_util.Value

type pid = int

type cfg = { n : int; t : int }

let cfg ~n ~t =
  if n <= 0 then invalid_arg "Types.cfg: n must be positive";
  if t < 0 || t >= n then invalid_arg "Types.cfg: need 0 <= t < n";
  { n; t }

let quorum cfg = Bca_util.Quorum.available ~n:cfg.n ~t:cfg.t

let check_crash_resilience cfg =
  if cfg.n < Bca_util.Quorum.supermajority ~t:cfg.t then
    invalid_arg
      (Printf.sprintf "crash resilience requires n >= 2t+1 (got n=%d t=%d)" cfg.n cfg.t)

let check_byz_resilience cfg =
  (* lint: allow quorum -- n >= 3t+1 is the resilience precondition on the configuration, not a message-counting threshold *)
  if cfg.n < (3 * cfg.t) + 1 then
    invalid_arg
      (Printf.sprintf "Byzantine resilience requires n >= 3t+1 (got n=%d t=%d)" cfg.n cfg.t)

type cvalue = Val of Value.t | Bot

let cval = function Value.V0 -> Val Value.V0 | Value.V1 -> Val Value.V1

let cvalue_equal a b =
  match (a, b) with
  | Val x, Val y -> Value.equal x y
  | Bot, Bot -> true
  | Val _, Bot | Bot, Val _ -> false

let cvalue_compare a b =
  match (a, b) with
  | Val x, Val y -> Bca_util.Value.compare x y
  | Bot, Bot -> 0
  | Bot, Val _ -> -1
  | Val _, Bot -> 1

let pp_cvalue ppf = function
  | Val v -> Value.pp ppf v
  | Bot -> Format.pp_print_string ppf "⊥"

type gdecision = G2 of Value.t | G1 of Value.t | G0

let gdecision_equal a b =
  match (a, b) with
  | G2 x, G2 y | G1 x, G1 y -> Value.equal x y
  | G0, G0 -> true
  | (G2 _ | G1 _ | G0), _ -> false

let pp_gdecision ppf = function
  | G2 v -> Format.fprintf ppf "(%a, grade 2)" Value.pp v
  | G1 v -> Format.fprintf ppf "(%a, grade 1)" Value.pp v
  | G0 -> Format.pp_print_string ppf "(⊥, grade 0)"

let gdecision_value = function G2 v | G1 v -> Val v | G0 -> Bot
