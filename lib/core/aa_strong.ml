module Value = Bca_util.Value
module Quorum = Bca_util.Quorum
module Coin = Bca_coin.Coin

module Make (B : Bca_intf.BCA) = struct
  type msg = Bca of int * B.msg | Committed of Value.t

  let pp_msg ppf = function
    | Bca (r, m) -> Format.fprintf ppf "r%d:%a" r B.pp_msg m
    | Committed v -> Format.fprintf ppf "committed(%a)" Value.pp v

  type params = {
    cfg : Types.cfg;
    mode : [ `Crash | `Byz ];
    coin : Coin.t;
    bca_params : round:int -> B.params;
  }

  type t = {
    p : params;
    me : Types.pid;
    instances : (int, B.t) Hashtbl.t;
    mutable round : int;
    mutable cur : B.t;
    (* [round]'s instance, also in [instances]: almost every delivery is
       for the current round, which then costs no hashed lookup *)
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
      let inst = B.create (t.p.bca_params ~round) ~me:t.me in
      Hashtbl.replace t.instances round inst;
      inst

  let instance_for t round = if round = t.round then t.cur else lookup t round

  let wrap round msgs = List.map (fun m -> Bca (round, m)) msgs

  (* Commit [v]: record it and emit the termination-layer broadcast.  In
     crash mode the committer may terminate right away - its committed
     message is already in flight on reliable links. *)
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
    (* Termination happens only upon *receiving* committed messages (the
       party's own broadcast loops back through the network), which is what
       makes the termination broadcast cost one communication step - the
       "+1" in every broadcast count of the paper. *)
    !out

  (* Algorithm 1's loop body: consume the current round's BCA decision, flip
     the round's coin, update the estimate, and start the next round.  The
     next round's instance may already hold a decision (its messages arrived
     early), so iterate. *)
  let rec try_advance t =
    if t.terminated then []
    else
      let inst = instance_for t t.round in
      match B.decision inst with
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
        if t.terminated then commit_out
        else begin
          t.round <- t.round + 1;
          let next = lookup t t.round in
          t.cur <- next;
          let starts = B.start next ~input:t.est in
          commit_out @ wrap t.round starts @ try_advance t
        end

  let create p ~me ~input =
    let inst = B.create (p.bca_params ~round:1) ~me in
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
    let out = wrap 1 (B.start inst ~input) in
    (t, out)

  (* Byzantine termination layer for one value: commit on t+1 committed
     messages, terminate on 2t+1.  Conses onto [out], newest first. *)
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
    match t.p.mode with
    | `Crash ->
      (* One committed message suffices: commit, rebroadcast, terminate. *)
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
    | `Byz -> List.rev (committed_quorum t Value.V1 (committed_quorum t Value.V0 []))

  let handle t ~from msg =
    if t.terminated then []
    else
      match msg with
      | Committed v -> handle_committed t ~from v
      | Bca (r, m) ->
        let outs = B.handle (instance_for t r) ~from m in
        (match try_advance t with
        | [] -> wrap r outs
        | advanced -> wrap r outs @ advanced)

  let committed t = t.committed

  let terminated t = t.terminated

  let current_round t = t.round

  let est t = t.est

  let commit_round t = t.commit_round

  let node t =
    Bca_netsim.Node.make
      ~receive:(fun ~src m -> List.map (fun m -> Bca_netsim.Node.Broadcast m) (handle t ~from:src m))
      ~terminated:(fun () -> t.terminated)
      ()

  let instance t ~round = Hashtbl.find_opt t.instances round

  let current_phase t =
    B.phase t.cur
end
