module Value = Bca_util.Value
module Quorum = Bca_util.Quorum

type msg = MEcho of Value.t | MEcho2 of Value.t | MEcho3 of Types.cvalue

let pp_msg ppf = function
  | MEcho v -> Format.fprintf ppf "echo(%a)" Value.pp v
  | MEcho2 v -> Format.fprintf ppf "echo2(%a)" Value.pp v
  | MEcho3 cv -> Format.fprintf ppf "echo3(%a)" Types.pp_cvalue cv

type start_ctx = {
  auto_approve : Value.t option;
  skip_echo : bool;
  early_echo3 : Value.t option;
}

let fresh = { auto_approve = None; skip_echo = false; early_echo3 = None }

type t = {
  cfg : Types.cfg;
  me : Types.pid;
  echoes : Value.t Quorum.t;
  echo2s : Value.t Quorum.t;
  echo3s : Types.cvalue Quorum.t;
  mutable my_echoes : Value.t list;
  mutable approved : Value.t list;
  mutable sent_echo2 : bool;
  mutable echo3_sent : Types.cvalue option;
  mutable decision : Types.cvalue option;
}

let create cfg ~me =
  Types.check_byz_resilience cfg;
  { cfg;
    me;
    echoes = Quorum.create ~n:cfg.Types.n;
    echo2s = Quorum.create ~n:cfg.Types.n;
    echo3s = Quorum.create ~n:cfg.Types.n;
    my_echoes = [];
    approved = [];
    sent_echo2 = false;
    echo3_sent = None;
    decision = None }

(* Approve [v] and cast the single echo2 vote if still unused
   (lines 5-7, extended to automatic approvals by optimization 2).  Like
   every clause below it conses its message onto [out], newest first. *)
let approve t v out =
  if Value.mem v t.approved then out
  else begin
    t.approved <- v :: t.approved;
    if t.sent_echo2 then out
    else begin
      t.sent_echo2 <- true;
      MEcho2 v :: out
    end
  end

let amplify t v out =
  if Quorum.count t.echoes v >= Quorum.plurality ~t:t.cfg.Types.t && not (Value.mem v t.my_echoes)
  then begin
    t.my_echoes <- v :: t.my_echoes;
    MEcho v :: out
  end
  else out

let approve_on_quorum t ~q v out = if Quorum.count t.echoes v >= q then approve t v out else out

let echo3_on_quorum t ~q v out =
  if Option.is_none t.echo3_sent && Quorum.count t.echo2s v >= q then begin
    let cv = Types.cval v in
    t.echo3_sent <- Some cv;
    MEcho3 cv :: out
  end
  else out

let decide_on_quorum t ~q v =
  let cv = Types.cval v in
  if Option.is_none t.decision && Quorum.count t.echo3s cv >= q then t.decision <- Some cv

(* Clause scan identical to Algorithm 4; approvals may now also come from
   the start context.  Emits newest first. *)
let progress_rev t out =
  let q = Types.quorum t.cfg in
  let out = amplify t Value.V1 (amplify t Value.V0 out) in
  let out = approve_on_quorum t ~q Value.V1 (approve_on_quorum t ~q Value.V0 out) in
  let out =
    if Option.is_some t.echo3_sent then out
    else if List.length t.approved > 1 then begin
      t.echo3_sent <- Some Types.Bot;
      MEcho3 Types.Bot :: out
    end
    else echo3_on_quorum t ~q Value.V1 (echo3_on_quorum t ~q Value.V0 out)
  in
  if Option.is_none t.decision then begin
    if List.length t.approved > 1 && Quorum.senders t.echo3s >= q then
      t.decision <- Some Types.Bot
    else begin
      decide_on_quorum t ~q Value.V0;
      decide_on_quorum t ~q Value.V1
    end
  end;
  out

let start t ~input ~ctx =
  let out =
    match ctx.early_echo3 with
    | Some v ->
      (* Optimization 4: the committed value is already common knowledge
         enough to vote and aggregate in one step. *)
      if not (Value.mem v t.approved) then t.approved <- v :: t.approved;
      let out =
        if t.sent_echo2 then []
        else begin
          t.sent_echo2 <- true;
          [ MEcho2 v ]
        end
      in
      if Option.is_none t.echo3_sent then begin
        let cv = Types.cval v in
        t.echo3_sent <- Some cv;
        MEcho3 cv :: out
      end
      else out
    | None ->
      let out = match ctx.auto_approve with Some a -> approve t a [] | None -> [] in
      if (not ctx.skip_echo) && not (Value.mem input t.my_echoes) then begin
        t.my_echoes <- input :: t.my_echoes;
        MEcho input :: out
      end
      else out
  in
  List.rev (progress_rev t out)

let handle t ~from msg =
  (match msg with
  | MEcho v -> ignore (Quorum.add_value t.echoes ~pid:from v : bool)
  | MEcho2 v -> ignore (Quorum.add_first t.echo2s ~pid:from v : bool)
  | MEcho3 cv -> ignore (Quorum.add_first t.echo3s ~pid:from cv : bool));
  List.rev (progress_rev t [])

let decision t = t.decision

let approved t = t.approved

let echo3_sent t = t.echo3_sent

let external_approve t v = List.rev (progress_rev t (approve t v []))
