(* Allocation budget of the protocol step.  One seeded [Aba.run] per stack
   below allocates the same number of minor-heap words every time for a
   given binary, so words per delivery is an exact figure, not a timing.
   The figures are for dune's default (dev) build, which compiles each
   module opaquely; a release build inlines across modules and allocates
   less.
   Each must stay within 10% of the value measured when the step was made
   allocation-lean (dense quorum tallies, closure-free progress, an
   allocation-free keyed MAC).  A regression that puts allocation back in
   the per-delivery path - a boxed tally, a closure per clause, a MAC that
   allocates per tag byte - breaks the budget; the last case proves it
   does, with a deliberately allocating quorum count run on every
   delivery. *)

module Aba = Bca_core.Aba
module Types = Bca_core.Types
module Async = Bca_netsim.Async_exec
module Quorum = Bca_util.Quorum
module Rng = Bca_util.Rng
module Value = Bca_util.Value

type case = {
  name : string;
  spec : Aba.spec;
  cfg : Types.cfg;
  (* behaviour pin: the run's deliveries and rounds for this seed *)
  deliveries : int;
  rounds : int;
  (* measured words per delivery; the budget is 10% above it *)
  words : float;
}

let seed = 2026L

let inputs n = Array.init n (fun i -> if i mod 3 = 0 then Value.V1 else Value.V0)

let cases =
  [ { name = "byz-strong n=10";
      spec = Aba.Byz_strong;
      cfg = Types.cfg ~n:10 ~t:3;
      deliveries = 1204;
      rounds = 4;
      words = 32.10 };
    { name = "byz-tsig n=10";
      spec = Aba.Byz_tsig;
      cfg = Types.cfg ~n:10 ~t:3;
      deliveries = 531;
      rounds = 2;
      words = 51.19 };
    { name = "crash-strong n=4";
      spec = Aba.Crash_strong;
      cfg = Types.cfg ~n:4 ~t:1;
      deliveries = 106;
      rounds = 4;
      words = 39.29 } ]

(* [Aba.run] spelled out through [run_custom] (same assembly, same seeded
   random scheduler), so that the words can be counted around the
   delivery loop alone and [on_delivery] can ride along on the executor's
   observer.  Returns (deliveries, rounds, minor words per delivery). *)
let measure ?on_delivery c =
  let driver =
    { Aba.drive =
        (fun ~coin:_ ~wire:_ exec parties ->
          Option.iter (fun f -> Async.set_observer exec (fun _ -> f ())) on_delivery;
          let scheduler = Async.random_scheduler (Rng.create seed) in
          let w0 = Gc.minor_words () in
          let outcome = Async.run exec scheduler in
          let words = Gc.minor_words () -. w0 in
          match outcome with
          | `All_terminated ->
            let deliveries = Async.deliveries exec in
            ( deliveries,
              Array.fold_left (fun acc p -> max acc (p.Aba.round ())) 0 parties,
              words /. float_of_int deliveries )
          | `Quiescent | `Limit | `Stopped -> Alcotest.failf "%s: run did not terminate" c.name)
    }
  in
  match Aba.run_custom ~seed c.spec ~cfg:c.cfg ~inputs:(inputs c.cfg.Types.n) ~driver with
  | Error e -> Alcotest.failf "%s: %s" c.name e
  | Ok r -> r

let budget c = c.words *. 1.10

let test_case c () =
  let deliveries, rounds, words = measure c in
  Printf.printf "%s: %d deliveries, %d rounds, %.2f words/delivery\n" c.name deliveries rounds words;
  Alcotest.(check int) "deliveries" c.deliveries deliveries;
  Alcotest.(check int) "rounds" c.rounds rounds;
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words/delivery within budget %.2f" words (budget c))
    true
    (words <= budget c)

(* The fixture: a quorum count that allocates - it lists the matching
   senders and takes the length, as a naive tally would - called once per
   delivery, must push the run over its budget. *)
let test_budget_bites () =
  let c = List.hd cases in
  let q = Quorum.create ~n:c.cfg.Types.n in
  for pid = 0 to c.cfg.Types.n - 1 do
    ignore (Quorum.add_first q ~pid (if pid mod 2 = 0 then Value.V0 else Value.V1) : bool)
  done;
  let allocating_count v = List.length (Quorum.senders_of q v) in
  let _, _, words =
    measure ~on_delivery:(fun () -> ignore (Sys.opaque_identity (allocating_count Value.V0) : int)) c
  in
  Printf.printf "with an allocating count: %.2f words/delivery\n" words;
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words/delivery breaks budget %.2f" words (budget c))
    true
    (words > budget c)

let () =
  Alcotest.run "budget"
    [ ( "alloc",
        List.map (fun c -> Alcotest.test_case c.name `Quick (test_case c)) cases
        @ [ Alcotest.test_case "allocating quorum count breaks it" `Quick test_budget_bites ] ) ]
