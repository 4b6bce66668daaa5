module Value = Bca_util.Value
module Threshold = Bca_crypto.Threshold
module Quorum = Bca_util.Quorum

type proof = Direct of Threshold.signature | Prev of Threshold.signature

type msg =
  | MEcho of Value.t * Threshold.share
  | MEcho2 of Value.t * proof
  | MEcho3 of Types.cvalue * proof list * Threshold.share option

let pp_msg ppf = function
  | MEcho (v, _) -> Format.fprintf ppf "echo(%a, share)" Value.pp v
  | MEcho2 (v, _) -> Format.fprintf ppf "echo2(%a, proof)" Value.pp v
  | MEcho3 (cv, _, _) -> Format.fprintf ppf "echo3(%a, proofs)" Types.pp_cvalue cv

type params = {
  cfg : Types.cfg;
  setup : Threshold.t;
  key : Threshold.key;
  round : int;
}

let echo_tag ~round v = String.concat "" [ "echo/r"; string_of_int round; "/"; Value.to_string v ]

let echo3_tag ~round v = String.concat "" [ "echo3/r"; string_of_int round; "/"; Value.to_string v ]

type start_ctx = Fresh | Carry of Value.t * Threshold.signature

type t = {
  p : params;
  mutable pending_echo : (Types.pid * Value.t * Threshold.share) list;
  mutable pending_echo2 : (Types.pid * Value.t * proof) list;
  mutable pending_echo3 : (Types.pid * Types.cvalue * Threshold.share option) list;
  mutable sent_echo2 : bool;
  mutable echo3_sent : Types.cvalue option;
  mutable decision : Types.cvalue option;
  mutable echo3_cert : (Value.t * Threshold.signature) option;
}

let create p ~me:_ =
  Types.check_byz_resilience p.cfg;
  { p;
    pending_echo = [];
    pending_echo2 = [];
    pending_echo3 = [];
    sent_echo2 = false;
    echo3_sent = None;
    decision = None;
    echo3_cert = None }

(* A proof that [v] is externally valid for this round (Definition G.16):
   either t+1 parties echoed v this round, or a 2t+1 echo3 quorum for v
   formed last round. *)
let valid_proof t v = function
  | Direct sigma ->
    Threshold.verify t.p.setup ~tag:(echo_tag ~round:t.p.round v) sigma
    && Threshold.threshold_of sigma = Quorum.plurality ~t:t.p.cfg.Types.t
  | Prev sigma ->
    t.p.round > 1
    && Threshold.verify t.p.setup ~tag:(echo3_tag ~round:(t.p.round - 1) v) sigma
    && Threshold.threshold_of sigma = Quorum.supermajority ~t:t.p.cfg.Types.t

let progress t =
  let q = Types.quorum t.p.cfg in
  let tt = t.p.cfg.Types.t in
  let out = ref [] in
  if not t.sent_echo2 then begin
    let candidate =
      List.find_opt
        (fun v ->
          List.length (List.filter (fun (_, v', _) -> Value.equal v v') t.pending_echo)
          >= Quorum.plurality ~t:tt)
        Value.both
    in
    match candidate with
    | Some v ->
      let shares =
        List.filter_map
          (fun (_, v', s) -> if Value.equal v v' then Some s else None)
          t.pending_echo
      in
      (match Threshold.combine t.p.setup ~k:(Quorum.plurality ~t:tt) ~tag:(echo_tag ~round:t.p.round v) shares with
      | Some sigma ->
        t.sent_echo2 <- true;
        out := !out @ [ MEcho2 (v, Direct sigma) ]
      | None -> ())
    | None -> ()
  end;
  if t.echo3_sent = None && List.length t.pending_echo2 >= q then begin
    let values =
      List.sort_uniq Value.compare (List.map (fun (_, v, _) -> v) t.pending_echo2)
    in
    match values with
    | [ v ] ->
      let _, _, proof = List.find (fun (_, v', _) -> Value.equal v v') t.pending_echo2 in
      let share = Threshold.sign t.p.key ~tag:(echo3_tag ~round:t.p.round v) in
      t.echo3_sent <- Some (Types.Val v);
      out := !out @ [ MEcho3 (Types.Val v, [ proof ], Some share) ]
    | _ ->
      let proof_for v =
        let _, _, proof = List.find (fun (_, v', _) -> Value.equal v v') t.pending_echo2 in
        proof
      in
      t.echo3_sent <- Some Types.Bot;
      out := !out @ [ MEcho3 (Types.Bot, List.map proof_for values, None) ]
  end;
  if t.decision = None && List.length t.pending_echo3 >= q then begin
    let values =
      List.sort_uniq Types.cvalue_compare (List.map (fun (_, cv, _) -> cv) t.pending_echo3)
    in
    match values with
    | [ Types.Val v ] ->
      let shares = List.filter_map (fun (_, _, share) -> share) t.pending_echo3 in
      (match
         Threshold.combine t.p.setup ~k:(Quorum.supermajority ~t:tt) ~tag:(echo3_tag ~round:t.p.round v)
           shares
       with
      | Some sigma ->
        t.echo3_cert <- Some (v, sigma);
        t.decision <- Some (Types.Val v)
      | None -> t.decision <- Some (Types.Val v))
    | _ -> t.decision <- Some Types.Bot
  end;
  !out

let start t ~input ~ctx =
  match ctx with
  | Fresh ->
    let share = Threshold.sign t.p.key ~tag:(echo_tag ~round:t.p.round input) in
    [ MEcho (input, share) ] @ progress t
  | Carry (v, sigma) ->
    (* Optimization 1: skip the echo round; the previous round's echo3
       certificate already proves v externally valid. *)
    if t.sent_echo2 then progress t
    else begin
      t.sent_echo2 <- true;
      [ MEcho2 (v, Prev sigma) ] @ progress t
    end

let handle t ~from msg =
  let relay = ref [] in
  (match msg with
  | MEcho (v, share) ->
    if
      (not (List.exists (fun (p, _, _) -> p = from) t.pending_echo))
      && Threshold.share_validate t.p.setup ~tag:(echo_tag ~round:t.p.round v) share
      && Threshold.share_signer share = from
    then t.pending_echo <- (from, v, share) :: t.pending_echo
  | MEcho2 (v, proof) ->
    if
      (not (List.exists (fun (p, _, _) -> p = from) t.pending_echo2))
      && valid_proof t v proof
    then begin
      t.pending_echo2 <- (from, v, proof) :: t.pending_echo2;
      if not t.sent_echo2 then begin
        t.sent_echo2 <- true;
        relay := [ MEcho2 (v, proof) ]
      end
    end
  | MEcho3 (cv, proofs, share) ->
    let vals = match cv with Types.Bot -> Value.both | Types.Val v -> [ v ] in
    let share_ok =
      match (cv, share) with
      | Types.Bot, _ -> true
      | Types.Val v, Some s ->
        Threshold.share_validate t.p.setup ~tag:(echo3_tag ~round:t.p.round v) s
        && Threshold.share_signer s = from
      | Types.Val _, None -> false
    in
    let proofs_ok =
      List.for_all (fun v' -> List.exists (fun p -> valid_proof t v' p) proofs) vals
    in
    if
      (not (List.exists (fun (p, _, _) -> p = from) t.pending_echo3))
      && share_ok && proofs_ok
    then t.pending_echo3 <- (from, cv, share) :: t.pending_echo3);
  !relay @ progress t

let decision t = t.decision

let echo3_cert t = t.echo3_cert

let echo3_sent t = t.echo3_sent
