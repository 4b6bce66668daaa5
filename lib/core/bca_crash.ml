module Value = Bca_util.Value
module Quorum = Bca_util.Quorum

type msg = MVal of Value.t | MEcho of Types.cvalue

let pp_msg ppf = function
  | MVal v -> Format.fprintf ppf "val(%a)" Value.pp v
  | MEcho cv -> Format.fprintf ppf "echo(%a)" Types.pp_cvalue cv

type params = Types.cfg

type t = {
  cfg : Types.cfg;
  me : Types.pid;
  vals : Value.t Quorum.t;
  echoes : Types.cvalue Quorum.t;
  mutable echoed : Types.cvalue option;
  mutable decision : Types.cvalue option;
}

let max_broadcast_steps = 2

let create cfg ~me =
  Types.check_crash_resilience cfg;
  { cfg; me; vals = Quorum.create ~n:cfg.Types.n; echoes = Quorum.create ~n:cfg.Types.n; echoed = None; decision = None }

let start _t ~input = [ MVal input ]

(* Fire any enabled "upon" clause that has not fired yet. *)
let progress t =
  let q = Types.quorum t.cfg in
  let out = ref [] in
  if Option.is_none t.echoed && Quorum.senders t.vals >= q then begin
    let echo =
      match Quorum.all_equal t.vals with Some v -> Types.cval v | None -> Types.Bot
    in
    t.echoed <- Some echo;
    out := [ MEcho echo ]
  end;
  if Option.is_none t.decision && Quorum.senders t.echoes >= q then begin
    let d = match Quorum.all_equal t.echoes with Some cv -> cv | None -> Types.Bot in
    t.decision <- Some d
  end;
  !out

let handle t ~from msg =
  match msg with
  | MVal v ->
    let _ : bool = Quorum.add_first t.vals ~pid:from v in
    progress t
  | MEcho cv ->
    let _ : bool = Quorum.add_first t.echoes ~pid:from cv in
    progress t

let decision t = t.decision

let phase t =
  if t.decision <> None then "decide" else if t.echoed <> None then "echo" else "init"


let echoed t = t.echoed

let val_count t v = Quorum.count t.vals v

let debug_copy t =
  { t with vals = Quorum.copy t.vals; echoes = Quorum.copy t.echoes }

let debug_encode t =
  let cv = function Types.Val v -> Value.to_string v | Types.Bot -> "b" in
  let quorum pp entries =
    String.concat ","
      (List.sort String.compare (List.map (fun (p, v) -> Printf.sprintf "%d=%s" p (pp v)) entries))
  in
  Printf.sprintf "v[%s]e[%s]s:%s d:%s"
    (quorum Value.to_string (Quorum.entries t.vals))
    (quorum cv (Quorum.entries t.echoes))
    (match t.echoed with Some c -> cv c | None -> "_")
    (match t.decision with Some c -> cv c | None -> "_")
