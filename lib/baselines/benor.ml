module Value = Bca_util.Value
module Quorum = Bca_util.Quorum
module Coin = Bca_coin.Coin
module Types = Bca_core.Types

type msg =
  | Report of int * Value.t
  | Proposal of int * Value.t option
  | Committed of Value.t

let pp_msg ppf = function
  | Report (r, v) -> Format.fprintf ppf "report(%d, %a)" r Value.pp v
  | Proposal (r, Some v) -> Format.fprintf ppf "proposal(%d, %a)" r Value.pp v
  | Proposal (r, None) -> Format.fprintf ppf "proposal(%d, ?)" r
  | Committed v -> Format.fprintf ppf "committed(%a)" Value.pp v

type params = { cfg : Types.cfg; coin : Coin.t }

type round_state = {
  reports : Value.t Quorum.t;
  proposals : Value.t option Quorum.t;
  mutable proposed : bool;
}

type t = {
  p : params;
  me : Types.pid;
  rounds : (int, round_state) Hashtbl.t;
  mutable round : int;
  mutable est : Value.t;
  mutable committed : Value.t option;
  mutable commit_round : int option;
  mutable sent_committed : bool;
  mutable terminated : bool;
}

let round_state t r =
  match Hashtbl.find_opt t.rounds r with
  | Some rs -> rs
  | None ->
    let rs = { reports = Quorum.create ~n:t.p.cfg.Types.n; proposals = Quorum.create ~n:t.p.cfg.Types.n; proposed = false } in
    Hashtbl.replace t.rounds r rs;
    rs

(* One scan of the enabled phase transitions; loops because advancing a
   round can immediately enable the next round's quorums. *)
let rec progress t =
  if t.terminated then []
  else begin
    let q = Types.quorum t.p.cfg in
    let tt = t.p.cfg.Types.t in
    let n = t.p.cfg.Types.n in
    let rs = round_state t t.round in
    let out = ref [] in
    if (not rs.proposed) && Quorum.senders rs.reports >= q then begin
      rs.proposed <- true;
      let majority =
        List.find_opt (fun v -> 2 * Quorum.count rs.reports v > n) Value.both
      in
      out := !out @ [ Proposal (t.round, majority) ]
    end;
    if Quorum.senders rs.proposals >= q then begin
      let decided =
        List.find_opt (fun v -> Quorum.count rs.proposals (Some v) >= Quorum.plurality ~t:tt) Value.both
      in
      let present =
        List.find_opt (fun v -> Quorum.count rs.proposals (Some v) >= 1) Value.both
      in
      (match decided with
      | Some v ->
        t.est <- v;
        if t.committed = None then begin
          t.committed <- Some v;
          t.commit_round <- Some t.round
        end;
        if not t.sent_committed then begin
          t.sent_committed <- true;
          out := !out @ [ Committed v ]
        end
      | None ->
        (match present with
        | Some v -> t.est <- v
        | None -> t.est <- Coin.access t.p.coin ~round:t.round ~pid:t.me));
      t.round <- t.round + 1;
      out := !out @ [ Report (t.round, t.est) ] @ progress t
    end;
    !out
  end

let create p ~me ~input =
  Types.check_crash_resilience p.cfg;
  let t =
    { p;
      me;
      rounds = Hashtbl.create 8;
      round = 1;
      est = input;
      committed = None;
      commit_round = None;
      sent_committed = false;
      terminated = false }
  in
  (t, [ Report (1, input) ])

let handle t ~from msg =
  if t.terminated then []
  else
    match msg with
    | Report (r, v) ->
      ignore (Quorum.add_first (round_state t r).reports ~pid:from v : bool);
      progress t
    | Proposal (r, p) ->
      ignore (Quorum.add_first (round_state t r).proposals ~pid:from p : bool);
      progress t
    | Committed v ->
      if t.committed = None then begin
        t.committed <- Some v;
        t.commit_round <- Some t.round
      end;
      let out =
        if not t.sent_committed then begin
          t.sent_committed <- true;
          [ Committed v ]
        end
        else []
      in
      t.terminated <- true;
      out

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
