module Quorum = Bca_util.Quorum
module Types = Bca_core.Types

type 'a msg = Initial of 'a | Echo of 'a | Ready of 'a

let pp_msg pp_payload ppf = function
  | Initial x -> Format.fprintf ppf "initial(%a)" pp_payload x
  | Echo x -> Format.fprintf ppf "echo(%a)" pp_payload x
  | Ready x -> Format.fprintf ppf "ready(%a)" pp_payload x

type 'a t = {
  cfg : Types.cfg;
  me : Types.pid;
  sender : Types.pid;
  echoes : 'a Quorum.t;
  readies : 'a Quorum.t;
  mutable echoed : bool;
  mutable readied : bool;
  mutable delivered : 'a option;
}

let create cfg ~me ~sender =
  Types.check_byz_resilience cfg;
  { cfg;
    me;
    sender;
    echoes = Quorum.create ~n:cfg.Types.n;
    readies = Quorum.create ~n:cfg.Types.n;
    echoed = false;
    readied = false;
    delivered = None }

let broadcast t x =
  assert (t.me = t.sender);
  [ Initial x ]

(* Every received payload value is a candidate; thresholds follow Bracha:
   echo on the sender's initial, ready on n-t echoes or t+1 readies,
   deliver on 2t+1 readies. *)
let progress t =
  let q = Types.quorum t.cfg in
  let tt = t.cfg.Types.t in
  let out = ref [] in
  let candidates =
    (* lint: allow poly-compare -- the payload is a type parameter here; the structural order is the only total order available for dedup *)
    List.sort_uniq compare (Quorum.values t.echoes @ Quorum.values t.readies)
  in
  List.iter
    (fun x ->
      if
        (not t.readied)
        && (Quorum.count t.echoes x >= q || Quorum.count t.readies x >= Quorum.plurality ~t:tt)
      then begin
        t.readied <- true;
        out := !out @ [ Ready x ]
      end;
      if t.delivered = None && Quorum.count t.readies x >= Quorum.supermajority ~t:tt then
        t.delivered <- Some x)
    candidates;
  !out

let handle t ~from msg =
  let direct = ref [] in
  (match msg with
  | Initial x ->
    if from = t.sender && not t.echoed then begin
      t.echoed <- true;
      direct := [ Echo x ]
    end
  | Echo x -> ignore (Quorum.add_first t.echoes ~pid:from x : bool)
  | Ready x -> ignore (Quorum.add_first t.readies ~pid:from x : bool));
  !direct @ progress t

let delivered t = t.delivered
