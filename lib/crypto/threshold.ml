module Rng = Bca_util.Rng

let keyed_hash secret tag = Keyed_mac.hash ~salt:131 secret tag

type t = { n : int; secrets : int64 array; dealer_secret : int64 }

type key = { me : int; secret : int64 }

type share = { signer : int; tag : string; mac : int64 }

type signature = { s_tag : string; s_k : int; cert : int64 }

let setup ~n ~seed =
  let rng = Rng.create seed in
  let secrets = Array.init n (fun _ -> Rng.int64 rng) in
  let dealer_secret = Rng.int64 rng in
  let t = { n; secrets; dealer_secret } in
  let keys = Array.init n (fun me -> { me; secret = secrets.(me) }) in
  (t, keys)

let n t = t.n

let sign key ~tag = { signer = key.me; tag; mac = keyed_hash key.secret tag }

let share_signer share = share.signer

let share_validate t ~tag share =
  share.signer >= 0 && share.signer < t.n && String.equal share.tag tag
  && Int64.equal share.mac (keyed_hash t.secrets.(share.signer) tag)

let cert_for t ~k ~tag = keyed_hash t.dealer_secret (string_of_int k ^ "|" ^ tag)

let combine t ~k ~tag shares =
  let valid = List.filter (share_validate t ~tag) shares in
  let signers = List.sort_uniq Int.compare (List.map share_signer valid) in
  if List.length signers >= k then Some { s_tag = tag; s_k = k; cert = cert_for t ~k ~tag }
  else None

let verify t ~tag signature =
  String.equal signature.s_tag tag
  && Int64.equal signature.cert (cert_for t ~k:signature.s_k ~tag)

let threshold_of signature = signature.s_k

let fingerprint signature = signature.cert

let share_repr s = (s.signer, s.tag, s.mac)

let share_unsafe_of_repr ~signer ~tag ~mac = { signer; tag; mac }

let signature_repr s = (s.s_tag, s.s_k, s.cert)

let signature_unsafe_of_repr ~tag ~k ~cert = { s_tag = tag; s_k = k; cert }

let pp_share ppf s = Format.fprintf ppf "share(%d, %s)" s.signer s.tag

let pp_signature ppf s = Format.fprintf ppf "tsig(%d-of-n, %s)" s.s_k s.s_tag
