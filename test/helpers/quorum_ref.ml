(* Reference model for [Bca_util.Quorum]: the original hashed
   implementation, kept as a differential oracle.  Senders live in a
   [Hashtbl] keyed by pid (any int is accepted), per-value tallies in an
   association list.  The dense quorum must agree with it on every pid in
   range and reject every pid outside it. *)

module Det = Bca_util.Det

type 'v t = {
  tbl : (int, 'v list) Hashtbl.t;
  mutable tallies : ('v * int ref) list;
}

let create () = { tbl = Hashtbl.create 16; tallies = [] }

let bump t v =
  match List.assoc_opt v t.tallies with
  | Some r -> incr r
  | None -> t.tallies <- (v, ref 1) :: t.tallies

let add_first t ~pid v =
  if Hashtbl.mem t.tbl pid then false
  else begin
    Hashtbl.replace t.tbl pid [ v ];
    bump t v;
    true
  end

let add_value t ~pid v =
  match Hashtbl.find_opt t.tbl pid with
  | None ->
    Hashtbl.replace t.tbl pid [ v ];
    bump t v;
    true
  | Some vs ->
    if List.mem v vs then false
    else begin
      Hashtbl.replace t.tbl pid (v :: vs);
      bump t v;
      true
    end

let count t v = match List.assoc_opt v t.tallies with Some r -> !r | None -> 0

let count_if t p =
  Det.fold_commutative (fun _ vs acc -> if List.exists p vs then acc + 1 else acc) t.tbl 0

let senders t = Hashtbl.length t.tbl

let values t = List.map fst t.tallies

let all_equal t = match t.tallies with [ (v, _) ] -> Some v | _ -> None

let senders_of t v =
  Det.bindings ~compare:Int.compare t.tbl
  |> List.filter_map (fun (pid, vs) -> if List.mem v vs then Some pid else None)

let mem_sender t ~pid = Hashtbl.mem t.tbl pid

let entries t =
  Det.bindings ~compare:Int.compare t.tbl
  |> List.concat_map (fun (pid, vs) -> List.map (fun v -> (pid, v)) vs)
