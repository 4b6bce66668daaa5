module Value = Bca_util.Value
module Threshold = Bca_crypto.Threshold

type t = { setup : Threshold.t; key : Threshold.key; me : int; k : int }

type share = Threshold.share

let round_tag round = "coin/r" ^ string_of_int round

let setup ~n ~k ~seed =
  let setup, keys = Threshold.setup ~n ~seed in
  Array.init n (fun me -> { setup; key = keys.(me); me; k })

let share t ~round = Threshold.sign t.key ~tag:(round_tag round)

let share_pid = Threshold.share_signer

let share_to_threshold s = s

let share_of_threshold s = s

let validate t ~round s = Threshold.share_validate t.setup ~tag:(round_tag round) s

(* The coin bit is the low bit of the unique combined signature.  Uniqueness
   makes it common (every combiner gets the same certificate) and
   threshold-ness makes it (k-1)-unpredictable: short of k shares the
   certificate - and hence the bit - is uncomputable. *)
let combine t ~round shares =
  match Threshold.combine t.setup ~k:t.k ~tag:(round_tag round) shares with
  | None -> None
  | Some sigma -> Some (Value.of_bool (Int64.logand (Threshold.fingerprint sigma) 1L = 1L))

module Collector = struct
  type coin = t

  type nonrec t = {
    coin : coin;
    rounds : (int, Threshold.share list ref) Hashtbl.t;
  }

  let create coin = { coin; rounds = Hashtbl.create 8 }

  let shares t round =
    match Hashtbl.find_opt t.rounds round with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace t.rounds round r;
      r

  let add t ~round s =
    if validate t.coin ~round s then begin
      let r = shares t round in
      if not (List.exists (fun s' -> share_pid s' = share_pid s) !r) then r := s :: !r
    end

  let value t ~round = combine t.coin ~round !(shares t round)
end
