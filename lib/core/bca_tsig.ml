module Value = Bca_util.Value
module Threshold = Bca_crypto.Threshold
module Quorum = Bca_util.Quorum

type msg =
  | MEcho of Value.t * Threshold.share
  | MEcho2 of Value.t * Threshold.signature
  | MEcho3 of Types.cvalue * Threshold.signature list * Threshold.share option

let pp_msg ppf = function
  | MEcho (v, _) -> Format.fprintf ppf "echo(%a, share)" Value.pp v
  | MEcho2 (v, _) -> Format.fprintf ppf "echo2(%a, cert)" Value.pp v
  | MEcho3 (cv, _, _) -> Format.fprintf ppf "echo3(%a, proofs)" Types.pp_cvalue cv

type params = {
  cfg : Types.cfg;
  setup : Threshold.t;
  key : Threshold.key;
  id : string;
}

let echo_tag ~id v = String.concat "" [ "echo/"; id; "/"; Value.to_string v ]

let echo3_tag ~id v = String.concat "" [ "echo3/"; id; "/"; Value.to_string v ]

type t = {
  p : params;
  (* first valid message per sender, as the pseudocode's pending sets *)
  mutable pending_echo : (Types.pid * Value.t * Threshold.share) list;
  mutable pending_echo2 : (Types.pid * Value.t * Threshold.signature) list;
  mutable pending_echo3 : (Types.pid * Types.cvalue * Threshold.share option) list;
  mutable sent_echo2 : bool;
  mutable echo3_sent : Types.cvalue option;
  mutable decision : Types.cvalue option;
  mutable echo3_cert : (Value.t * Threshold.signature) option;
  tags : string array;
  (* this instance's signed tags: echo for V0, V1, then echo3 for V0, V1;
     each built on first use ("" until then) and reused for every message *)
}

let max_broadcast_steps = 3

let create p ~me:_ =
  Types.check_byz_resilience p.cfg;
  { p;
    pending_echo = [];
    pending_echo2 = [];
    pending_echo3 = [];
    sent_echo2 = false;
    echo3_sent = None;
    decision = None;
    echo3_cert = None;
    tags = Array.make 4 "" }

let cached_tag t i build v =
  let i = i + Value.to_int v in
  if String.length t.tags.(i) = 0 then t.tags.(i) <- build ~id:t.p.id v;
  t.tags.(i)

let own_echo_tag t v = cached_tag t 0 echo_tag v

let own_echo3_tag t v = cached_tag t 2 echo3_tag v

let start t ~input =
  let share = Threshold.sign t.p.key ~tag:(own_echo_tag t input) in
  [ MEcho (input, share) ]

(* Valid sigma_echo certificate for value v: threshold t+1 on the echo tag. *)
let valid_echo_cert t v sigma =
  Threshold.verify t.p.setup ~tag:(own_echo_tag t v) sigma
  && Threshold.threshold_of sigma = Quorum.plurality ~t:t.p.cfg.Types.t

let rec has_sender from = function
  | [] -> false
  | (p, _, _) :: rest -> p = from || has_sender from rest

let rec count_echoes v = function
  | [] -> 0
  | (_, v', _) :: rest -> (if Value.equal v v' then 1 else 0) + count_echoes v rest

let rec proof_for v = function
  | [] -> raise Not_found
  | (_, v', sigma) :: rest -> if Value.equal v v' then sigma else proof_for v rest

(* Emits newest first; [handle] reverses once. *)
let progress_rev t out =
  let q = Types.quorum t.p.cfg in
  let tt = t.p.cfg.Types.t in
  (* Lines 6-9: combine t+1 echo shares for a single value into sigma_echo
     and vote with echo2. *)
  let out =
    if t.sent_echo2 then out
    else begin
      let candidate =
        if count_echoes Value.V0 t.pending_echo >= Quorum.plurality ~t:tt then Some Value.V0
        else if count_echoes Value.V1 t.pending_echo >= Quorum.plurality ~t:tt then Some Value.V1
        else None
      in
      match candidate with
      | Some v ->
        let shares =
          List.filter_map
            (fun (_, v', s) -> if Value.equal v v' then Some s else None)
            t.pending_echo
        in
        (match Threshold.combine t.p.setup ~k:(Quorum.plurality ~t:tt) ~tag:(own_echo_tag t v) shares with
        | Some sigma ->
          t.sent_echo2 <- true;
          MEcho2 (v, sigma) :: out
        | None -> out)
      | None -> out
    end
  in
  (* Lines 14-19: aggregate n-t echo2 votes into an echo3 message. *)
  let out =
    if Option.is_some t.echo3_sent || List.length t.pending_echo2 < q then out
    else begin
      let values =
        List.sort_uniq Value.compare (List.map (fun (_, v, _) -> v) t.pending_echo2)
      in
      match values with
      | [ v ] ->
        let sigma = proof_for v t.pending_echo2 in
        let share = Threshold.sign t.p.key ~tag:(own_echo3_tag t v) in
        let cv = Types.cval v in
        t.echo3_sent <- Some cv;
        MEcho3 (cv, [ sigma ], Some share) :: out
      | _ ->
        t.echo3_sent <- Some Types.Bot;
        MEcho3 (Types.Bot, List.map (fun v -> proof_for v t.pending_echo2) values, None) :: out
    end
  in
  (* Lines 25-31: decide on n-t valid echo3 messages. *)
  if Option.is_none t.decision && List.length t.pending_echo3 >= q then begin
    let values =
      List.sort_uniq Types.cvalue_compare (List.map (fun (_, cv, _) -> cv) t.pending_echo3)
    in
    match values with
    | [ Types.Val v ] ->
      let shares =
        List.filter_map (fun (_, _, share) -> share) t.pending_echo3
      in
      (match
         Threshold.combine t.p.setup ~k:(Quorum.supermajority ~t:tt) ~tag:(own_echo3_tag t v) shares
       with
      | Some sigma ->
        t.echo3_cert <- Some (v, sigma);
        t.decision <- Some (Types.cval v)
      | None ->
        (* Unreachable for honest executions: n-t >= 2t+1 validated shares. *)
        t.decision <- Some (Types.cval v))
    | _ -> t.decision <- Some Types.Bot
  end;
  out

(* An echo3 for a value carries the sender's share on that value's echo3
   tag; one for bottom carries none. *)
let echo3_share_ok t ~from cv share =
  match (cv, share) with
  | Types.Bot, _ -> true
  | Types.Val v, Some s ->
    Threshold.share_validate t.p.setup ~tag:(own_echo3_tag t v) s && Threshold.share_signer s = from
  | Types.Val _, None -> false

(* Every value an echo3 claims approved needs a sigma_echo proof. *)
let echo3_proofs_ok t cv proofs =
  let proven v = List.exists (fun sigma -> valid_echo_cert t v sigma) proofs in
  match cv with
  | Types.Bot -> proven Value.V0 && proven Value.V1
  | Types.Val v -> proven v

(* Each check is made only once the cheaper ones pass: a duplicate sender
   costs no MAC. *)
let handle t ~from msg =
  let relay =
    match msg with
    | MEcho (v, share) ->
      if
        (not (has_sender from t.pending_echo))
        && Threshold.share_validate t.p.setup ~tag:(own_echo_tag t v) share
        && Threshold.share_signer share = from
      then t.pending_echo <- (from, v, share) :: t.pending_echo;
      []
    | MEcho2 (v, sigma) ->
      if (not (has_sender from t.pending_echo2)) && valid_echo_cert t v sigma then begin
        t.pending_echo2 <- (from, v, sigma) :: t.pending_echo2;
        (* Lines 11-12: a party that has not voted adopts and relays the first
           valid certificate it sees; the broadcast loops back to itself. *)
        if t.sent_echo2 then []
        else begin
          t.sent_echo2 <- true;
          [ MEcho2 (v, sigma) ]
        end
      end
      else []
    | MEcho3 (cv, proofs, share) ->
      if
        (not (has_sender from t.pending_echo3))
        && echo3_share_ok t ~from cv share
        && echo3_proofs_ok t cv proofs
      then t.pending_echo3 <- (from, cv, share) :: t.pending_echo3;
      []
  in
  List.rev (progress_rev t relay)

let decision t = t.decision

let phase t =
  if t.decision <> None then "decide"
  else if t.echo3_sent <> None then "echo3"
  else if t.sent_echo2 then "echo2"
  else "init"


let echo3_cert t = t.echo3_cert

let echo3_sent t = t.echo3_sent
