module Value = Bca_util.Value
module Quorum = Bca_util.Quorum
module Coin = Bca_coin.Coin
module Types = Bca_core.Types
module Det = Bca_util.Det

type msg =
  | Est of int * Value.t
  | Aux of int * Value.t
  | Committed of Value.t

let pp_msg ppf = function
  | Est (r, v) -> Format.fprintf ppf "est(%d, %a)" r Value.pp v
  | Aux (r, v) -> Format.fprintf ppf "aux(%d, %a)" r Value.pp v
  | Committed v -> Format.fprintf ppf "committed(%a)" Value.pp v

type params = { cfg : Types.cfg; coin : Coin.t }

type round_state = {
  ests : Value.t Quorum.t;  (* per (sender, value): relays add a second echo *)
  mutable auxs : (Types.pid * Value.t) list;  (* arrival order, first per sender *)
  mutable relayed : Value.t list;
  mutable bin : Value.t list;
  mutable aux_sent : bool;
}

type t = {
  p : params;
  me : Types.pid;
  rounds : (int, round_state) Hashtbl.t;
  mutable round : int;
  mutable est : Value.t;
  mutable committed : Value.t option;
  mutable sent_committed : bool;
  mutable terminated : bool;
  committed_msgs : Value.t Quorum.t;
}

let round_state t r =
  match Hashtbl.find_opt t.rounds r with
  | Some rs -> rs
  | None ->
    let rs =
      { ests = Quorum.create ~n:t.p.cfg.Types.n; auxs = []; relayed = []; bin = []; aux_sent = false }
    in
    Hashtbl.replace t.rounds r rs;
    rs

let bin_values t ~round = (round_state t round).bin

(* The first n-t AUX senders (in arrival order) whose values are already
   BV-delivered; [None] until that many exist.  Arrival order is the
   adversary's lever - exactly the flaw the attack exploits. *)
let aux_view t rs =
  let q = Types.quorum t.p.cfg in
  let rec take seen vals = function
    | [] -> None
    | (pid, v) :: rest ->
      if List.mem pid seen || not (List.mem v rs.bin) then take seen vals rest
      else
        let seen = pid :: seen in
        let vals = if List.mem v vals then vals else v :: vals in
        if List.length seen >= q then Some vals else take seen vals rest
  in
  take [] [] (List.rev rs.auxs)

let rec progress t =
  if t.terminated then []
  else begin
    let tt = t.p.cfg.Types.t in
    let q = Types.quorum t.p.cfg in
    let out = ref [] in
    let rs = round_state t t.round in
    (* BV-broadcast relays and deliveries, for every round with traffic. *)
    Det.iter_sorted ~compare:Int.compare
      (fun r rs ->
        List.iter
          (fun v ->
            if Quorum.count rs.ests v >= Quorum.plurality ~t:tt && not (List.mem v rs.relayed) then begin
              rs.relayed <- v :: rs.relayed;
              out := !out @ [ Est (r, v) ]
            end;
            if Quorum.count rs.ests v >= Quorum.supermajority ~t:tt && not (List.mem v rs.bin) then
              rs.bin <- v :: rs.bin)
          Value.both)
      t.rounds;
    (* AUX for the first delivered value. *)
    if (not rs.aux_sent) && rs.bin <> [] then begin
      rs.aux_sent <- true;
      let v = List.nth rs.bin (List.length rs.bin - 1) in
      out := !out @ [ Aux (t.round, v) ]
    end;
    ignore q;
    (* Decision step on a consistent n-t AUX view. *)
    (match aux_view t rs with
    | Some [ v ] ->
      let s = Coin.access t.p.coin ~round:t.round ~pid:t.me in
      t.est <- v;
      if Value.equal v s && t.committed = None then begin
        t.committed <- Some v;
        if not t.sent_committed then begin
          t.sent_committed <- true;
          out := !out @ [ Committed v ]
        end
      end;
      t.round <- t.round + 1;
      out := !out @ [ Est (t.round, t.est) ] @ progress t
    | Some _ ->
      let s = Coin.access t.p.coin ~round:t.round ~pid:t.me in
      t.est <- s;
      t.round <- t.round + 1;
      out := !out @ [ Est (t.round, t.est) ] @ progress t
    | None -> ());
    !out
  end

let create p ~me ~input =
  Types.check_byz_resilience p.cfg;
  let t =
    { p;
      me;
      rounds = Hashtbl.create 8;
      round = 1;
      est = input;
      committed = None;
      sent_committed = false;
      terminated = false;
      committed_msgs = Quorum.create ~n:p.cfg.Types.n }
  in
  (t, [ Est (1, input) ])

let handle t ~from msg =
  if t.terminated then []
  else
    match msg with
    | Est (r, v) ->
      ignore (Quorum.add_value (round_state t r).ests ~pid:from v : bool);
      progress t
    | Aux (r, v) ->
      let rs = round_state t r in
      if not (List.exists (fun (p, _) -> p = from) rs.auxs) then
        rs.auxs <- (from, v) :: rs.auxs;
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

let terminated t = t.terminated

let current_round t = t.round

let est t = t.est

let node t =
  Bca_netsim.Node.make
    ~receive:(fun ~src m -> List.map (fun m -> Bca_netsim.Node.Broadcast m) (handle t ~from:src m))
    ~terminated:(fun () -> t.terminated)
    ()
