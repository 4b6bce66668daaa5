module Value = Bca_util.Value
module Quorum = Bca_util.Quorum

type msg = MVal of Value.t | MEcho of Types.cvalue | MEcho2 of Types.cvalue

let pp_msg ppf = function
  | MVal v -> Format.fprintf ppf "val(%a)" Value.pp v
  | MEcho cv -> Format.fprintf ppf "echo(%a)" Types.pp_cvalue cv
  | MEcho2 cv -> Format.fprintf ppf "echo2(%a)" Types.pp_cvalue cv

type params = Types.cfg

type t = {
  cfg : Types.cfg;
  me : Types.pid;
  vals : Value.t Quorum.t;
  echoes : Types.cvalue Quorum.t;
  echo2s : Types.cvalue Quorum.t;
  mutable echoed : Types.cvalue option;
  mutable echo2_sent : Types.cvalue option;
  mutable decision : Types.gdecision option;
}

let max_broadcast_steps = 3

let create cfg ~me =
  Types.check_crash_resilience cfg;
  { cfg;
    me;
    vals = Quorum.create ~n:cfg.Types.n;
    echoes = Quorum.create ~n:cfg.Types.n;
    echo2s = Quorum.create ~n:cfg.Types.n;
    echoed = None;
    echo2_sent = None;
    decision = None }

let start _t ~input = [ MVal input ]

(* Grade the echo2 quorum per lines 8-11: unanimity on a value decides it at
   grade 2 (or grade 0 for unanimous bottom); a mix containing some
   non-bottom v decides v at grade 1.  Two distinct non-bottom values cannot
   both appear (quorum intersection, Lemma E.1); if a misbehaving environment
   produces that anyway, we keep the decision total by preferring V0. *)
let grade_echo2s echo2s =
  match Quorum.all_equal echo2s with
  | Some (Types.Val v) -> Types.G2 v
  | Some Types.Bot -> Types.G0
  | None ->
    if Quorum.count echo2s (Types.Val Value.V0) > 0 then Types.G1 Value.V0
    else Types.G1 Value.V1

let progress t =
  let q = Types.quorum t.cfg in
  let out =
    if Option.is_none t.echoed && Quorum.senders t.vals >= q then begin
      let echo =
        match Quorum.all_equal t.vals with Some v -> Types.cval v | None -> Types.Bot
      in
      t.echoed <- Some echo;
      [ MEcho echo ]
    end
    else []
  in
  let out =
    if Option.is_none t.echo2_sent && Quorum.senders t.echoes >= q then begin
      let echo2 =
        match Quorum.all_equal t.echoes with Some cv -> cv | None -> Types.Bot
      in
      t.echo2_sent <- Some echo2;
      MEcho2 echo2 :: out
    end
    else out
  in
  if Option.is_none t.decision && Quorum.senders t.echo2s >= q then
    t.decision <- Some (grade_echo2s t.echo2s);
  List.rev out

let handle t ~from msg =
  (match msg with
  | MVal v -> ignore (Quorum.add_first t.vals ~pid:from v : bool)
  | MEcho cv -> ignore (Quorum.add_first t.echoes ~pid:from cv : bool)
  | MEcho2 cv -> ignore (Quorum.add_first t.echo2s ~pid:from cv : bool));
  progress t

let decision t = t.decision

let phase t =
  if t.decision <> None then "decide"
  else if t.echo2_sent <> None then "echo2"
  else if t.echoed <> None then "echo"
  else "init"


let echo2_sent t = t.echo2_sent

let debug_copy t =
  { t with
    vals = Quorum.copy t.vals;
    echoes = Quorum.copy t.echoes;
    echo2s = Quorum.copy t.echo2s }

let debug_encode t =
  let cv = function Types.Val v -> Value.to_string v | Types.Bot -> "b" in
  let quorum pp entries =
    String.concat ","
      (List.sort String.compare (List.map (fun (p, v) -> Printf.sprintf "%d=%s" p (pp v)) entries))
  in
  let g = function
    | Types.G2 v -> "2" ^ Value.to_string v
    | Types.G1 v -> "1" ^ Value.to_string v
    | Types.G0 -> "0"
  in
  Printf.sprintf "v[%s]e[%s]f[%s]s:%s s2:%s d:%s"
    (quorum Value.to_string (Quorum.entries t.vals))
    (quorum cv (Quorum.entries t.echoes))
    (quorum cv (Quorum.entries t.echo2s))
    (match t.echoed with Some c -> cv c | None -> "_")
    (match t.echo2_sent with Some c -> cv c | None -> "_")
    (match t.decision with Some d -> g d | None -> "_")
