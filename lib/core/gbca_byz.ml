module Value = Bca_util.Value
module Quorum = Bca_util.Quorum

type msg =
  | MEcho of Value.t
  | MEcho2 of Value.t
  | MEcho3 of Types.cvalue
  | MEcho4 of Types.cvalue
  | MEcho5 of Types.cvalue

let pp_msg ppf = function
  | MEcho v -> Format.fprintf ppf "echo(%a)" Value.pp v
  | MEcho2 v -> Format.fprintf ppf "echo2(%a)" Value.pp v
  | MEcho3 cv -> Format.fprintf ppf "echo3(%a)" Types.pp_cvalue cv
  | MEcho4 cv -> Format.fprintf ppf "echo4(%a)" Types.pp_cvalue cv
  | MEcho5 cv -> Format.fprintf ppf "echo5(%a)" Types.pp_cvalue cv

type params = Types.cfg

type t = {
  cfg : Types.cfg;
  me : Types.pid;
  echoes : Value.t Quorum.t;
  echo2s : Value.t Quorum.t;
  echo3s : Types.cvalue Quorum.t;
  echo4s : Types.cvalue Quorum.t;
  echo5s : Types.cvalue Quorum.t;
  mutable my_echoes : Value.t list;
  mutable approved : Value.t list;
  mutable sent_echo2 : bool;
  mutable echo3_sent : Types.cvalue option;
  mutable echo4_sent : Types.cvalue option;
  mutable echo5_sent : Types.cvalue option;
  mutable decision : Types.gdecision option;
}

let max_broadcast_steps = 6

let create cfg ~me =
  Types.check_byz_resilience cfg;
  { cfg;
    me;
    echoes = Quorum.create ~n:cfg.Types.n;
    echo2s = Quorum.create ~n:cfg.Types.n;
    echo3s = Quorum.create ~n:cfg.Types.n;
    echo4s = Quorum.create ~n:cfg.Types.n;
    echo5s = Quorum.create ~n:cfg.Types.n;
    my_echoes = [];
    approved = [];
    sent_echo2 = false;
    echo3_sent = None;
    echo4_sent = None;
    echo5_sent = None;
    decision = None }

let start t ~input =
  if Value.mem input t.my_echoes then []
  else begin
    t.my_echoes <- input :: t.my_echoes;
    [ MEcho input ]
  end

(* A "wait until (1) quorum for one non-bottom value / (2) n-t messages of
   any value and both values approved" stage, shared by the echo3, echo4 and
   echo5 rounds of Algorithm 6.  Returns the value to relay, once. *)
let stage_output t ~(prev : Types.cvalue Quorum.t) =
  let q = Types.quorum t.cfg in
  if Quorum.count prev (Types.Val Value.V0) >= q then Some (Types.Val Value.V0)
  else if Quorum.count prev (Types.Val Value.V1) >= q then Some (Types.Val Value.V1)
  else if Quorum.senders prev >= q && List.length t.approved > 1 then Some Types.Bot
  else None

(* Clauses over one value at a time, V0 before V1 as in the pseudocode's
   scan.  Each conses its message onto [out] (newest first); [progress]
   reverses once.  No per-call closures. *)

(* Amplification (lines 3-4). *)
let amplify t v out =
  if Quorum.count t.echoes v >= Quorum.plurality ~t:t.cfg.Types.t && not (Value.mem v t.my_echoes)
  then begin
    t.my_echoes <- v :: t.my_echoes;
    MEcho v :: out
  end
  else out

(* Approval and the single echo2 vote (lines 5-7). *)
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

(* Grade 1 for [v] (lines 25-27): some echo5 and t+1 echo4 messages. *)
let grade1 t v =
  let cv = Types.cval v in
  Quorum.count t.echo5s cv >= 1 && Quorum.count t.echo4s cv >= Quorum.plurality ~t:t.cfg.Types.t

let progress t =
  let q = Types.quorum t.cfg in
  let out = amplify t Value.V1 (amplify t Value.V0 []) in
  let out = approve t ~q Value.V1 (approve t ~q Value.V0 out) in
  (* echo2 -> echo3 (lines 8-12). *)
  let out =
    if Option.is_some t.echo3_sent then out
    else begin
      let cv =
        if Quorum.count t.echo2s Value.V0 >= q then Some (Types.Val Value.V0)
        else if Quorum.count t.echo2s Value.V1 >= q then Some (Types.Val Value.V1)
        else if Quorum.senders t.echo2s >= q && List.length t.approved > 1 then Some Types.Bot
        else None
      in
      match cv with
      | Some c ->
        t.echo3_sent <- cv;
        MEcho3 c :: out
      | None -> out
    end
  in
  (* echo3 -> echo4 (lines 13-17). *)
  let out =
    if Option.is_some t.echo4_sent then out
    else
      match stage_output t ~prev:t.echo3s with
      | Some c as cv ->
        t.echo4_sent <- cv;
        MEcho4 c :: out
      | None -> out
  in
  (* echo4 -> echo5 (lines 18-22). *)
  let out =
    if Option.is_some t.echo5_sent then out
    else
      match stage_output t ~prev:t.echo4s with
      | Some c as cv ->
        t.echo5_sent <- cv;
        MEcho5 c :: out
      | None -> out
  in
  (* Decision (lines 23-29), conditions tested in the pseudocode's order. *)
  if Option.is_none t.decision then begin
    if Quorum.count t.echo5s (Types.Val Value.V0) >= q then t.decision <- Some (Types.G2 Value.V0)
    else if Quorum.count t.echo5s (Types.Val Value.V1) >= q then
      t.decision <- Some (Types.G2 Value.V1)
    else begin
      let both_approved = List.length t.approved > 1 in
      let graded = both_approved && Quorum.senders t.echo5s >= q in
      if graded && grade1 t Value.V0 then t.decision <- Some (Types.G1 Value.V0)
      else if graded && grade1 t Value.V1 then t.decision <- Some (Types.G1 Value.V1)
      else if both_approved && Quorum.count t.echo5s Types.Bot >= q then
        t.decision <- Some Types.G0
    end
  end;
  List.rev out

let handle t ~from msg =
  (match msg with
  | MEcho v -> ignore (Quorum.add_value t.echoes ~pid:from v : bool)
  | MEcho2 v -> ignore (Quorum.add_first t.echo2s ~pid:from v : bool)
  | MEcho3 cv -> ignore (Quorum.add_first t.echo3s ~pid:from cv : bool)
  | MEcho4 cv -> ignore (Quorum.add_first t.echo4s ~pid:from cv : bool)
  | MEcho5 cv -> ignore (Quorum.add_first t.echo5s ~pid:from cv : bool));
  progress t

let decision t = t.decision

let phase t =
  if t.decision <> None then "decide"
  else if t.echo5_sent <> None then "echo5"
  else if t.echo4_sent <> None then "echo4"
  else if t.echo3_sent <> None then "echo3"
  else if t.sent_echo2 then "echo2"
  else if t.my_echoes <> [] then "echo"
  else "init"


let approved t = t.approved

let echo4_sent t = t.echo4_sent

let debug_copy t =
  { t with
    echoes = Quorum.copy t.echoes;
    echo2s = Quorum.copy t.echo2s;
    echo3s = Quorum.copy t.echo3s;
    echo4s = Quorum.copy t.echo4s;
    echo5s = Quorum.copy t.echo5s }

let debug_encode t =
  let v = Value.to_string in
  let cv = function Types.Val x -> v x | Types.Bot -> "b" in
  let g = function
    | Types.G2 x -> "2" ^ v x
    | Types.G1 x -> "1" ^ v x
    | Types.G0 -> "0"
  in
  let quorum pp entries =
    String.concat ","
      (List.sort String.compare (List.map (fun (p, x) -> Printf.sprintf "%d=%s" p (pp x)) entries))
  in
  let set xs = String.concat "" (List.sort String.compare (List.map v xs)) in
  Printf.sprintf "e[%s]f[%s]g[%s]h[%s]i[%s]my:%s ap:%s s2:%b s3:%s s4:%s s5:%s d:%s"
    (quorum v (Quorum.entries t.echoes))
    (quorum v (Quorum.entries t.echo2s))
    (quorum cv (Quorum.entries t.echo3s))
    (quorum cv (Quorum.entries t.echo4s))
    (quorum cv (Quorum.entries t.echo5s))
    (set t.my_echoes) (set t.approved) t.sent_echo2
    (match t.echo3_sent with Some c -> cv c | None -> "_")
    (match t.echo4_sent with Some c -> cv c | None -> "_")
    (match t.echo5_sent with Some c -> cv c | None -> "_")
    (match t.decision with Some d -> g d | None -> "_")
