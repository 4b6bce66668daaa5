type 'v tally = { value : 'v; mutable count : int }

type 'v t = {
  by_pid : 'v list array;
  (* values credited to each sender, newest first; [] = nothing credited.
     Indexed by pid, so crediting a message and testing a sender are one
     array access instead of a hashed lookup. *)
  mutable senders : int;
  mutable tallies : 'v tally list;
  (* per-value sender tallies, newest value first, maintained incrementally
     on every credited message so the threshold tests protocols run after
     each delivery are O(#distinct values) instead of a scan over all
     senders.  Protocol values are tiny variants (two or three distinct
     possibilities), so a short list beats any hashed structure here. *)
}

let create ~n =
  if n < 0 then invalid_arg "Quorum.create: negative n";
  { by_pid = Array.make n []; senders = 0; tallies = [] }

let copy t =
  { by_pid = Array.copy t.by_pid;
    senders = t.senders;
    tallies = List.map (fun r -> { value = r.value; count = r.count }) t.tallies }

(* Physical equality first: protocol values are mostly immediates and
   statically allocated constants, which it decides without a call into the
   runtime's structural comparison. *)
let same a b = a == b || a = b

let rec mem v = function [] -> false | x :: rest -> same v x || mem v rest

let rec incr_tally v = function
  | [] -> false
  | r :: rest ->
    if same v r.value then begin
      r.count <- r.count + 1;
      true
    end
    else incr_tally v rest

let in_range t pid = Bounds.index_ok ~len:(Array.length t.by_pid) pid

let credit t ~pid vs v =
  (match vs with [] -> t.senders <- t.senders + 1 | _ :: _ -> ());
  t.by_pid.(pid) <- v :: vs;
  if not (incr_tally v t.tallies) then t.tallies <- { value = v; count = 1 } :: t.tallies

let add_first t ~pid v =
  in_range t pid
  &&
  match t.by_pid.(pid) with
  | [] ->
    credit t ~pid [] v;
    true
  | _ :: _ -> false

let add_value t ~pid v =
  in_range t pid
  &&
  let vs = t.by_pid.(pid) in
  (not (mem v vs))
  && begin
       credit t ~pid vs v;
       true
     end

let rec count_in v = function
  | [] -> 0
  | r :: rest -> if same v r.value then r.count else count_in v rest

let count t v = count_in v t.tallies

let count_if t p =
  Array.fold_left (fun acc vs -> if List.exists p vs then acc + 1 else acc) 0 t.by_pid

let senders t = t.senders

let values t = List.map (fun r -> r.value) t.tallies

let all_equal t = match t.tallies with [ r ] -> Some r.value | _ -> None

let senders_of t v =
  let acc = ref [] in
  for pid = Array.length t.by_pid - 1 downto 0 do
    if mem v t.by_pid.(pid) then acc := pid :: !acc
  done;
  !acc

let mem_sender t ~pid =
  in_range t pid && match t.by_pid.(pid) with [] -> false | _ :: _ -> true

let entries t =
  let acc = ref [] in
  for pid = Array.length t.by_pid - 1 downto 0 do
    acc := List.map (fun v -> (pid, v)) t.by_pid.(pid) @ !acc
  done;
  !acc

(* Threshold arithmetic.  These three formulas are the paper's whole quorum
   vocabulary; spelling them once here (the only file the lint quorum rule
   exempts) keeps a mistyped [2 * t - 1] from hiding in a protocol body. *)

let plurality ~t = t + 1
let supermajority ~t = (2 * t) + 1
let available ~n ~t = n - t
