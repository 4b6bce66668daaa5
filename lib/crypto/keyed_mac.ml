(* SplitMix64's golden gamma and output mix (Stafford's mix13 constants),
   as [Bca_util.Rng.int64] applies them.  [absorb acc byte] is exactly
   [Rng.int64 (Rng.create (acc + byte + salt))], folded inline so that no
   generator record or boxed int64 is made per byte. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] absorb acc x = mix (Int64.add (Int64.add acc (Int64.of_int x)) golden_gamma)

let hash ~salt secret tag =
  let acc = ref secret in
  for i = 0 to String.length tag - 1 do
    acc := absorb !acc (Char.code (String.unsafe_get tag i) + salt)
  done;
  absorb !acc (String.length tag)
