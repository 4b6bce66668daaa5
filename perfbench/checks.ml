(* Output checks.  Each returns what failed instead of raising, so a bad
   operation is counted against the attempts and the run goes on. *)

module Value = Bca_util.Value

(* One binary-agreement instance: every party committed, all to the same
   value (agreement), and unanimous inputs were decided as given
   (validity). *)
let aba ~inputs ~(commits : Value.t option array) =
  if Array.exists Option.is_none commits then Error "a party terminated without committing"
  else
    let cs = Array.map Option.get commits in
    let v = cs.(0) in
    if not (Array.for_all (Value.equal v) cs) then Error "agreement violated"
    else if Array.for_all (Value.equal inputs.(0)) inputs && not (Value.equal v inputs.(0)) then
      Error "validity violated: unanimous input not decided"
    else Ok ()

(* Validity alone, for drivers that already checked agreement. *)
let aba_decided ~inputs v = aba ~inputs ~commits:[| Some v |]

(* One replicated-log run.  Every scheduled transaction is an operation;
   it fails unless it appears exactly once in the common log.  If any
   replica's log digest differs from replica 0's there is no common log,
   and every operation fails. *)
let rsm ~(scheduled : string array) ~(logs : string list array) =
  let digest l = Bca_transport.Cluster.rsm_log_hash l in
  let d0 = digest logs.(0) in
  if not (Array.for_all (fun l -> Int64.equal (digest l) d0) logs) then Array.length scheduled
  else begin
    let seen = Hashtbl.create (Array.length scheduled) in
    List.iter
      (fun tx -> Hashtbl.replace seen tx (1 + Option.value ~default:0 (Hashtbl.find_opt seen tx)))
      logs.(0);
    Array.fold_left
      (fun bad tx -> if Hashtbl.find_opt seen tx = Some 1 then bad else bad + 1)
      0 scheduled
  end

(* Fixtures proving the checks bite: each broken output must be reported.
   Returns the names of the fixtures that were NOT caught. *)
let selftest () =
  let b = Value.of_bool in
  let missed = ref [] in
  let expect name ok = if not ok then missed := name :: !missed in
  expect "aba: good run accepted"
    (Result.is_ok (aba ~inputs:[| b true; b false; b true; b true |] ~commits:(Array.make 4 (Some (b false)))));
  expect "aba: disagreement caught"
    (Result.is_error (aba ~inputs:(Array.make 4 (b true)) ~commits:[| Some (b true); Some (b false); Some (b true); Some (b true) |]));
  expect "aba: validity violation caught"
    (Result.is_error (aba ~inputs:(Array.make 4 (b true)) ~commits:(Array.make 4 (Some (b false)))));
  expect "aba: missing commit caught"
    (Result.is_error (aba ~inputs:(Array.make 4 (b true)) ~commits:[| Some (b true); None; Some (b true); Some (b true) |]));
  let scheduled = [| "t1"; "t2"; "t3" |] in
  let good = [ "t2"; "t1"; "t3" ] in
  expect "rsm: good run accepted" (rsm ~scheduled ~logs:[| good; good; good; good |] = 0);
  expect "rsm: disagreeing digest fails every op"
    (rsm ~scheduled ~logs:[| good; good; [ "t1"; "t2"; "t3" ]; good |] = 3);
  let dropped = [ "t2"; "t3" ] in
  expect "rsm: dropped tx counted" (rsm ~scheduled ~logs:[| dropped; dropped; dropped; dropped |] = 1);
  let dup = [ "t1"; "t2"; "t1"; "t3" ] in
  expect "rsm: duplicated tx counted" (rsm ~scheduled ~logs:[| dup; dup; dup; dup |] = 1);
  List.rev !missed
