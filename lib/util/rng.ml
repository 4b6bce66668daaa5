(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable int64]
   record field would allocate a fresh box on every draw, and the
   scheduler draws on every delivery. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let copy = Bytes.copy

(* SplitMix64 output function: mix the incremented state through two
   xor-shift-multiply rounds (Stafford's mix13 constants). *)
let[@inline] int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = int64 t in
  create seed

let int t bound =
  assert (bound > 0);
  let mask = Int64.of_int max_int in
  let r = Int64.to_int (Int64.logand (int64 t) mask) in
  r mod bound

(* Rejection sampling: accept draws below the largest multiple of [bound]
   representable in 63 bits, so every residue is equally likely.  [int] keeps
   its (negligibly) biased modulo reduction because seeded expectations all
   over the test suite depend on its exact output stream. *)
let int_unbiased t bound =
  assert (bound > 0);
  let b = Int64.of_int bound in
  let lim = Int64.mul (Int64.div (Int64.of_int max_int) b) b in
  let mask = Int64.of_int max_int in
  let rec draw () =
    let r = Int64.logand (int64 t) mask in
    if r < lim then Int64.to_int (Int64.rem r b) else draw ()
  in
  draw ()

let bool t = Int64.logand (int64 t) 1L = 1L

let float t =
  let bits53 = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits53 *. (1.0 /. 9007199254740992.0)

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let pick_arr t a =
  let len = Array.length a in
  if len = 0 then invalid_arg "Rng.pick_arr: empty array";
  a.(int t len)

let shuffle t xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a
