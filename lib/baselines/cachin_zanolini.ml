module Value = Bca_util.Value
module Quorum = Bca_util.Quorum
module Coin = Bca_coin.Coin
module Types = Bca_core.Types
module Det = Bca_util.Det

type msg =
  | MValue of int * Value.t
  | MAux of int * Value.t
  | MRelease of int
  | Committed of Value.t

let pp_msg ppf = function
  | MValue (r, v) -> Format.fprintf ppf "value(%d, %a)" r Value.pp v
  | MAux (r, v) -> Format.fprintf ppf "aux(%d, %a)" r Value.pp v
  | MRelease r -> Format.fprintf ppf "release-coin(%d)" r
  | Committed v -> Format.fprintf ppf "committed(%a)" Value.pp v

type params = { cfg : Types.cfg; coin : Coin.t }

type round_state = {
  values : Value.t Quorum.t;  (* per (sender, value) *)
  mutable auxs : (Types.pid * Value.t) list;  (* arrival order, first per sender *)
  mutable relayed : Value.t list;
  mutable delivered : Value.t list;
  mutable aux_sent : bool;
  mutable auxed : Value.t list;  (* values AUXed in per-value mode *)
  mutable released : bool;
  mutable view : Value.t list option;
  releases : unit Quorum.t;
  mutable resolved : bool;
}

type t = {
  p : params;
  me : Types.pid;
  per_value_aux : bool;  (* the historical bug, reintroduced under a flag *)
  rounds : (int, round_state) Hashtbl.t;
  mutable round : int;
  mutable est : Value.t;
  mutable committed : Value.t option;
  mutable commit_round : int option;
  mutable sent_committed : bool;
  mutable terminated : bool;
  committed_msgs : Value.t Quorum.t;
}

let round_state t r =
  match Hashtbl.find_opt t.rounds r with
  | Some rs -> rs
  | None ->
    let rs =
      { values = Quorum.create ~n:t.p.cfg.Types.n;
        auxs = [];
        relayed = [];
        delivered = [];
        aux_sent = false;
        auxed = [];
        released = false;
        view = None;
        releases = Quorum.create ~n:t.p.cfg.Types.n;
        resolved = false }
    in
    Hashtbl.replace t.rounds r rs;
    rs

(* Line 30's batch: the first [n - t] distinct AUX senders (arrival order)
   whose values are all among the delivered ones; the distinct values of
   the collected entries form the frozen view B.  One entry per sender -
   each honest party AUXes exactly once per round, which is what makes two
   singleton views necessarily agree (any two [n - t] sender sets share an
   honest party, and that party's unique AUX value is in both views). *)
let line30_view t rs =
  let q = Types.quorum t.p.cfg in
  let rec take seen vals = function
    | [] -> None
    | (pid, v) :: rest ->
      if List.mem pid seen || not (List.mem v rs.delivered) then take seen vals rest
      else begin
        let seen = pid :: seen in
        let vals = if List.mem v vals then vals else v :: vals in
        if List.length seen >= q then Some vals else take seen vals rest
      end
  in
  take [] [] (List.rev rs.auxs)

let rec progress t =
  if t.terminated then []
  else begin
    let tt = t.p.cfg.Types.t in
    let out = ref [] in
    (* BV-broadcast relays, deliveries and per-value AUX, on every round. *)
    Det.iter_sorted ~compare:Int.compare
      (fun r rs ->
        List.iter
          (fun v ->
            if Quorum.count rs.values v >= Quorum.plurality ~t:tt && not (List.mem v rs.relayed) then begin
              rs.relayed <- v :: rs.relayed;
              out := !out @ [ MValue (r, v) ]
            end;
            if Quorum.count rs.values v >= Quorum.supermajority ~t:tt && not (List.mem v rs.delivered)
            then rs.delivered <- v :: rs.delivered)
          Value.both)
      t.rounds;
    let rs = round_state t t.round in
    (* AUX for the first abv-delivered value, once per round.  One AUX per
       party is what the agreement argument needs: auxing every delivered
       value separately lets two honest parties freeze disjoint singleton
       views (their [n - t] batches can close before the other value's AUX
       arrives) and commit different values in different rounds.  The
       [per_value_aux] branch {e is} that historical bug, kept reachable
       behind the flag as the adversary-search benchmark target. *)
    if t.per_value_aux then
      List.iter
        (fun v ->
          if not (List.mem v rs.auxed) then begin
            rs.auxed <- v :: rs.auxed;
            out := !out @ [ MAux (t.round, v) ]
          end)
        (List.rev rs.delivered)
    else if (not rs.aux_sent) && rs.delivered <> [] then begin
      rs.aux_sent <- true;
      let v = List.nth rs.delivered (List.length rs.delivered - 1) in
      out := !out @ [ MAux (t.round, v) ]
    end;
    (* Line 30: freeze the view and release the coin. *)
    if not rs.released then begin
      match line30_view t rs with
      | Some view ->
        rs.released <- true;
        rs.view <- Some view;
        out := !out @ [ MRelease t.round ]
      | None -> ()
    end;
    (* Line 33: enough coin shares arrived - read the coin and resolve. *)
    if rs.released && (not rs.resolved) && Quorum.senders rs.releases >= Coin.degree t.p.coin + 1
    then begin
      rs.resolved <- true;
      let s = Coin.access t.p.coin ~round:t.round ~pid:t.me in
      (match rs.view with
      | Some [ v ] ->
        t.est <- v;
        if Value.equal v s && t.committed = None then begin
          t.committed <- Some v;
          t.commit_round <- Some t.round;
          if not t.sent_committed then begin
            t.sent_committed <- true;
            out := !out @ [ Committed v ]
          end
        end
      | Some _ | None -> t.est <- s);
      t.round <- t.round + 1;
      out := !out @ [ MValue (t.round, t.est) ] @ progress t
    end;
    !out
  end

let create ?(per_value_aux = false) p ~me ~input =
  Types.check_byz_resilience p.cfg;
  let t =
    { p;
      me;
      per_value_aux;
      rounds = Hashtbl.create 8;
      round = 1;
      est = input;
      committed = None;
      commit_round = None;
      sent_committed = false;
      terminated = false;
      committed_msgs = Quorum.create ~n:p.cfg.Types.n }
  in
  (t, [ MValue (1, input) ])

let handle t ~from msg =
  if t.terminated then []
  else
    match msg with
    | MValue (r, v) ->
      ignore (Quorum.add_value (round_state t r).values ~pid:from v : bool);
      progress t
    | MAux (r, v) ->
      let rs = round_state t r in
      if not (List.exists (fun (p, _) -> p = from) rs.auxs) then
        rs.auxs <- (from, v) :: rs.auxs;
      progress t
    | MRelease r ->
      ignore (Quorum.add_first (round_state t r).releases ~pid:from () : bool);
      progress t
    | Committed v ->
      ignore (Quorum.add_first t.committed_msgs ~pid:from v : bool);
      let tt = t.p.cfg.Types.t in
      let out = ref [] in
      List.iter
        (fun v' ->
          let c = Quorum.count t.committed_msgs v' in
          if c >= Quorum.plurality ~t:tt && t.committed = None then begin
            t.committed <- Some v';
            t.commit_round <- Some t.round;
            if not t.sent_committed then begin
              t.sent_committed <- true;
              out := !out @ [ Committed v' ]
            end
          end;
          if c >= Quorum.supermajority ~t:tt then t.terminated <- true)
        Value.both;
      ignore v;
      !out

let committed t = t.committed

let commit_round t = t.commit_round

let terminated t = t.terminated

let current_round t = t.round

(* Milestone label for the probe, mirroring the (G)BCA stacks'
   [current_phase]: deepest quorum-gated step the current round passed. *)
let current_phase t =
  if t.committed <> None then "decide"
  else begin
    let rs = round_state t t.round in
    if rs.resolved then "resolved"
    else if rs.released then "released"
    else if rs.aux_sent || rs.auxed <> [] then "aux"
    else if rs.delivered <> [] then "delivered"
    else "init"
  end

let est t = t.est

let released t ~round = (round_state t round).released

let delivered t ~round = (round_state t round).delivered

let view t ~round = (round_state t round).view

let node t =
  Bca_netsim.Node.make
    ~receive:(fun ~src m -> List.map (fun m -> Bca_netsim.Node.Broadcast m) (handle t ~from:src m))
    ~terminated:(fun () -> t.terminated)
    ()
