module Value = Bca_util.Value
module Quorum = Bca_util.Quorum

type msg = MEcho of Value.t | MEcho2 of Value.t | MEcho3 of Types.cvalue

let pp_msg ppf = function
  | MEcho v -> Format.fprintf ppf "echo(%a)" Value.pp v
  | MEcho2 v -> Format.fprintf ppf "echo2(%a)" Value.pp v
  | MEcho3 cv -> Format.fprintf ppf "echo3(%a)" Types.pp_cvalue cv

type params = Types.cfg

type t = {
  cfg : Types.cfg;
  me : Types.pid;
  echoes : Value.t Quorum.t;  (* per (sender, value): amplification is a second echo *)
  echo2s : Value.t Quorum.t;  (* first per sender *)
  echo3s : Types.cvalue Quorum.t;  (* first per sender *)
  mutable my_echoes : Value.t list;  (* echo values this party already sent *)
  mutable approved : Value.t list;
  mutable sent_echo2 : bool;
  mutable echo3_sent : Types.cvalue option;
  mutable decision : Types.cvalue option;
}

let max_broadcast_steps = 4

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

let start t ~input =
  (* The input echo may coincide with an amplification already sent while
     waiting to start (Algorithm 4 sends each echo value at most once). *)
  if Value.mem input t.my_echoes then []
  else begin
    t.my_echoes <- input :: t.my_echoes;
    [ MEcho input ]
  end

(* The clauses of Algorithm 4, one value at a time.  Each takes the
   messages emitted so far, newest first, and returns them with its own
   consed on; [progress] reverses once.  Top-level functions over an
   explicit value keep the step free of per-call closures. *)

(* Lines 3-4: amplification. *)
let amplify t v out =
  if Quorum.count t.echoes v >= Quorum.plurality ~t:t.cfg.Types.t && not (Value.mem v t.my_echoes)
  then begin
    t.my_echoes <- v :: t.my_echoes;
    MEcho v :: out
  end
  else out

(* Lines 5-7: approval and the single echo2 vote. *)
let approve t ~q v out =
  if Quorum.count t.echoes v >= q && not (Value.mem v t.approved) then begin
    t.approved <- v :: t.approved;
    if t.sent_echo2 then out
    else begin
      t.sent_echo2 <- true;
      MEcho2 v :: out
    end
  end
  else out

(* Lines 8-12, condition (2): an echo2 quorum for [v]. *)
let echo3_on_quorum t ~q v out =
  if Option.is_none t.echo3_sent && Quorum.count t.echo2s v >= q then begin
    let cv = Types.cval v in
    t.echo3_sent <- Some cv;
    MEcho3 cv :: out
  end
  else out

(* Lines 13-17, condition (2): an echo3 quorum for [v]. *)
let decide_on_quorum t ~q v =
  let cv = Types.cval v in
  if Option.is_none t.decision && Quorum.count t.echo3s cv >= q then t.decision <- Some cv

(* Evaluate every clause of Algorithm 4 that may have become enabled. Clauses
   guard themselves against re-firing, so a full re-scan after each delivery
   is exactly the pseudocode's "upon"/"wait until" semantics. *)
let progress t =
  let q = Types.quorum t.cfg in
  let out = amplify t Value.V1 (amplify t Value.V0 []) in
  let out = approve t ~q Value.V1 (approve t ~q Value.V0 out) in
  (* Lines 8-12: wait until |approvedVals| > 1, or an echo2 quorum for one
     value; the pseudocode tests condition (1) first. *)
  let out =
    if Option.is_some t.echo3_sent then out
    else if List.length t.approved > 1 then begin
      t.echo3_sent <- Some Types.Bot;
      MEcho3 Types.Bot :: out
    end
    else echo3_on_quorum t ~q Value.V1 (echo3_on_quorum t ~q Value.V0 out)
  in
  (* Lines 13-17: decision; condition (1) tested first. *)
  if Option.is_none t.decision then begin
    if List.length t.approved > 1 && Quorum.senders t.echo3s >= q then
      t.decision <- Some Types.Bot
    else begin
      decide_on_quorum t ~q Value.V0;
      decide_on_quorum t ~q Value.V1
    end
  end;
  List.rev out

let handle t ~from msg =
  (match msg with
  | MEcho v -> ignore (Quorum.add_value t.echoes ~pid:from v : bool)
  | MEcho2 v -> ignore (Quorum.add_first t.echo2s ~pid:from v : bool)
  | MEcho3 cv -> ignore (Quorum.add_first t.echo3s ~pid:from cv : bool));
  progress t

let decision t = t.decision

let phase t =
  if t.decision <> None then "decide"
  else if t.echo3_sent <> None then "echo3"
  else if t.sent_echo2 then "echo2"
  else if t.my_echoes <> [] then "echo"
  else "init"


let approved t = t.approved

let debug_copy t =
  { t with
    echoes = Quorum.copy t.echoes;
    echo2s = Quorum.copy t.echo2s;
    echo3s = Quorum.copy t.echo3s;
    my_echoes = t.my_echoes;
    approved = t.approved }

let debug_encode t =
  let v = Value.to_string in
  let cv = function Types.Val x -> v x | Types.Bot -> "b" in
  let quorum pp entries =
    String.concat ","
      (List.sort String.compare (List.map (fun (p, x) -> Printf.sprintf "%d=%s" p (pp x)) entries))
  in
  let set xs = String.concat "" (List.sort String.compare (List.map v xs)) in
  Printf.sprintf "e[%s]f[%s]g[%s]my:%s ap:%s s2:%b s3:%s d:%s"
    (quorum v (Quorum.entries t.echoes))
    (quorum v (Quorum.entries t.echo2s))
    (quorum cv (Quorum.entries t.echo3s))
    (set t.my_echoes) (set t.approved) t.sent_echo2
    (match t.echo3_sent with Some c -> cv c | None -> "_")
    (match t.decision with Some c -> cv c | None -> "_")

let echo3_sent t = t.echo3_sent
