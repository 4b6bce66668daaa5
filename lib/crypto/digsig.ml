module Rng = Bca_util.Rng

let keyed_hash secret tag = Keyed_mac.hash ~salt:977 secret tag

type t = { n : int; secrets : int64 array }

type key = { me : int; secret : int64 }

type signature = { signer : int; tag : string; mac : int64 }

let setup ~n ~seed =
  let rng = Rng.create seed in
  let secrets = Array.init n (fun _ -> Rng.int64 rng) in
  ({ n; secrets }, Array.init n (fun me -> { me; secret = secrets.(me) }))

let sign key ~tag = { signer = key.me; tag; mac = keyed_hash key.secret tag }

let signer s = s.signer

let verify t ~tag s =
  s.signer >= 0 && s.signer < t.n && String.equal s.tag tag
  && Int64.equal s.mac (keyed_hash t.secrets.(s.signer) tag)
