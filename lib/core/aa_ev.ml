module Value = Bca_util.Value
module Quorum = Bca_util.Quorum
module Coin = Bca_coin.Coin

type msg = Bca of int * Evbca_byz.msg | Committed of Value.t

let pp_msg ppf = function
  | Bca (r, m) -> Format.fprintf ppf "r%d:%a" r Evbca_byz.pp_msg m
  | Committed v -> Format.fprintf ppf "committed(%a)" Value.pp v

type params = {
  cfg : Types.cfg;
  coin : Coin.t;
  optimize : bool;  (* false = every round starts fresh (ablation baseline) *)
}

type t = {
  p : params;
  me : Types.pid;
  instances : (int, Evbca_byz.t) Hashtbl.t;
  mutable round : int;
  mutable cur : Evbca_byz.t;
  (* [round]'s instance, also in [instances]: almost every delivery is for
     the current round, which then costs no hashed lookup *)
  mutable est : Value.t;
  mutable committed : Value.t option;
  mutable commit_round : int option;
  mutable sent_committed : bool;
  mutable terminated : bool;
  committed_msgs : Value.t Quorum.t;
}

let lookup t round =
  match Hashtbl.find_opt t.instances round with
  | Some inst -> inst
  | None ->
    let inst = Evbca_byz.create t.p.cfg ~me:t.me in
    Hashtbl.replace t.instances round inst;
    inst

let instance_for t round = if round = t.round then t.cur else lookup t round

let wrap round msgs = List.map (fun m -> Bca (round, m)) msgs

let commit t v =
  let out = ref [] in
  if t.committed = None then begin
    t.committed <- Some v;
    t.commit_round <- Some t.round
  end;
  if not t.sent_committed then begin
    t.sent_committed <- true;
    out := [ Committed v ]
  end;
  !out

(* The start context for the next round, from this round's outcome
   (optimizations 1, 3, 4 of Appendix G.1). *)
let next_ctx inst ~decision ~coin_value =
  match decision with
  | Types.Val v when Value.equal v coin_value ->
    { Evbca_byz.auto_approve = None; skip_echo = false; early_echo3 = Some v }
  | Types.Val _ ->
    let auto =
      if Value.mem coin_value (Evbca_byz.approved inst) then Some coin_value else None
    in
    { Evbca_byz.auto_approve = auto; skip_echo = false; early_echo3 = None }
  | Types.Bot ->
    (* A bottom decision requires both values approved, so the coin value is
       approved and optimization 3 applies. *)
    { Evbca_byz.auto_approve = Some coin_value; skip_echo = true; early_echo3 = None }

let rec try_advance t =
  if t.terminated then []
  else
    let inst = instance_for t t.round in
    match Evbca_byz.decision inst with
    | None -> []
    | Some cv ->
      let c = Coin.access t.p.coin ~round:t.round ~pid:t.me in
      let commit_out =
        match cv with
        | Types.Val v when Value.equal v c ->
          t.est <- v;
          commit t v
        | Types.Val v ->
          t.est <- v;
          []
        | Types.Bot ->
          t.est <- c;
          []
      in
      let ctx =
        if t.p.optimize then next_ctx inst ~decision:cv ~coin_value:c else Evbca_byz.fresh
      in
      t.round <- t.round + 1;
      let next = lookup t t.round in
      t.cur <- next;
      let starts = Evbca_byz.start next ~input:t.est ~ctx in
      commit_out @ wrap t.round starts @ try_advance t

let create p ~me ~input =
  let inst = Evbca_byz.create p.cfg ~me in
  let t =
    { p;
      me;
      instances = Hashtbl.create 8;
      round = 1;
      cur = inst;
      est = input;
      committed = None;
      commit_round = None;
      sent_committed = false;
      terminated = false;
      committed_msgs = Quorum.create ~n:p.cfg.Types.n }
  in
  Hashtbl.replace t.instances 1 inst;
  let out = wrap 1 (Evbca_byz.start inst ~input ~ctx:Evbca_byz.fresh) in
  (t, out)

(* Termination layer for one value: commit on t+1 committed messages,
   terminate on 2t+1.  Conses onto [out], newest first. *)
let committed_quorum t v out =
  let tt = t.p.cfg.Types.t in
  let c = Quorum.count t.committed_msgs v in
  let out =
    if c >= Quorum.plurality ~t:tt && Option.is_none t.committed then begin
      t.committed <- Some v;
      t.commit_round <- Some t.round;
      if t.sent_committed then out
      else begin
        t.sent_committed <- true;
        Committed v :: out
      end
    end
    else out
  in
  if c >= Quorum.supermajority ~t:tt then t.terminated <- true;
  out

let handle_committed t ~from v =
  ignore (Quorum.add_first t.committed_msgs ~pid:from v : bool);
  List.rev (committed_quorum t Value.V1 (committed_quorum t Value.V0 []))

(* Optimization 1 is a standing rule, not a one-shot: whenever a past
   round's approvedVals gains that round's coin value (late echo arrivals),
   the approval propagates into the following round. *)
let propagate_approvals t =
  let out = ref [] in
  for r = 1 to t.round - 1 do
    let inst = instance_for t r in
    let c = Coin.access t.p.coin ~round:r ~pid:t.me in
    if Value.mem c (Evbca_byz.approved inst) then begin
      let next = instance_for t (r + 1) in
      if not (Value.mem c (Evbca_byz.approved next)) then
        out := !out @ wrap (r + 1) (Evbca_byz.external_approve next c)
    end
  done;
  !out

let handle t ~from msg =
  if t.terminated then []
  else
    match msg with
    | Committed v -> handle_committed t ~from v
    | Bca (r, m) ->
      let outs = wrap r (Evbca_byz.handle (instance_for t r) ~from m) in
      let propagated = if t.p.optimize then propagate_approvals t else [] in
      (match (propagated, try_advance t) with
      | [], [] -> outs
      | _, advanced -> outs @ propagated @ advanced)

let committed t = t.committed

let terminated t = t.terminated

let current_round t = t.round

let commit_round t = t.commit_round

let est t = t.est

let node t =
  Bca_netsim.Node.make
    ~receive:(fun ~src m -> List.map (fun m -> Bca_netsim.Node.Broadcast m) (handle t ~from:src m))
    ~terminated:(fun () -> t.terminated)
    ()

let instance t ~round = Hashtbl.find_opt t.instances round
