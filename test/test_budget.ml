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


(* ---- the codec path ------------------------------------------------

   Allocation per record of the batched wire path with no sockets: the
   batcher encodes 64 byz-strong messages to one destination (the 64th
   fills the batch and flushes it into a loopback hub), the hub delivers
   the frame, and [Batch.iter_view] walks it, decoding each record with
   the stack codec.  Deterministic like the protocol budget above: minor
   words per record, measured once the buffers have grown, within 10% of
   the value measured when the wire path was made copy-lean (closure-free
   varints, one-allocation batch framing). *)

module Wire = Bca_wire.Wire
module Batch = Bca_wire.Batch
module Batcher = Bca_transport.Batcher
module Transport = Bca_transport.Transport
module Wirefmt = Bca_core.Wirefmt
module Byz_strong = Bca_core.Aa_strong.Make (Bca_core.Bca_byz)

let batch_records = 64

let codec_words = 10.16

let codec_budget = codec_words *. 1.10

let messages =
  Array.init batch_records (fun i ->
      let v = if i mod 2 = 0 then Value.V0 else Value.V1 in
      match i mod 4 with
      | 0 -> Byz_strong.Committed v
      | 1 -> Byz_strong.Bca (i, Bca_core.Bca_byz.MEcho v)
      | 2 -> Byz_strong.Bca (i, Bca_core.Bca_byz.MEcho2 v)
      | _ -> Byz_strong.Bca (i, Bca_core.Bca_byz.MEcho3 (Types.Val v)))

(* The fixture's batch walk: [Batch.iter_view]'s, reading varints the way
   [Wire.Get.varint] once did, through a local loop that captures the
   cursor - one closure per varint. *)
let closure_varint g =
  let rec go shift acc =
    if shift > 56 then raise (Wire.Get.Malformed "varint too long")
    else
      let b = Wire.Get.u8 g in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if acc < 0 then raise (Wire.Get.Malformed "varint overflows 63-bit int")
      else if b land 0x80 = 0 then acc
      else go (shift + 7) acc
  in
  go 0 0

let walk_with_closure_varints v ~record =
  let g = Wire.cursor_of_view v in
  ignore (Wire.Get.u8 g : int);
  ignore (Wire.Get.u8 g : int);
  let count = closure_varint g in
  for _ = 1 to count do
    let instance = closure_varint g in
    let len = closure_varint g in
    record ~instance (Wire.Get.sub g len)
  done;
  Wire.Get.expect_end g

(* One batch through the path; minor words per record. *)
let codec_path_words ~walk =
  let hub = Transport.Loopback.create_hub ~n:2 () in
  let net = Transport.Loopback.endpoint hub ~me:0 in
  let bat =
    Batcher.create ~policy:(Batcher.policy ~max_records:batch_records ())
      ~inner_codec_id:Wirefmt.byz_strong.Wire.id net
  in
  let encs = Array.map (fun m buf -> Wirefmt.byz_strong.Wire.enc buf m) messages in
  let got = Array.make batch_records (Byz_strong.Committed Value.V0) in
  let record ~instance g =
    got.(instance) <- Wirefmt.byz_strong.Wire.dec g;
    Wire.Get.expect_end g
  in
  let once () =
    for i = 0 to batch_records - 1 do
      Batcher.send bat ~dst:1 ~instance:i ~enc:encs.(i)
    done;
    match Transport.Loopback.step hub with
    | None -> Alcotest.fail "the full batch was not flushed"
    | Some (_, f) -> walk (Wire.view_of_frame f) ~record
  in
  (* warm-up: the batcher's buffers grow to size on the first batch *)
  once ();
  let w0 = Gc.minor_words () in
  once ();
  let words = (Gc.minor_words () -. w0) /. float_of_int batch_records in
  Array.iteri
    (fun i m ->
      if got.(i) <> m then Alcotest.failf "record %d decoded to a different message" i)
    messages;
  words

let iter_view_walk v ~record =
  match Batch.iter_view v ~record with
  | Ok (_, count) -> if count <> batch_records then Alcotest.failf "%d records" count
  | Error e -> Alcotest.failf "batch: %s" (Wire.error_to_string e)

let test_codec_path () =
  let words = codec_path_words ~walk:iter_view_walk in
  Printf.printf "codec path: %.2f words/record\n" words;
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words/record within budget %.2f" words codec_budget)
    true (words <= codec_budget)

let test_codec_budget_bites () =
  let words = codec_path_words ~walk:walk_with_closure_varints in
  Printf.printf "with closure-allocating varints: %.2f words/record\n" words;
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words/record breaks budget %.2f" words codec_budget)
    true (words > codec_budget)

let () =
  Alcotest.run "budget"
    [ ( "alloc",
        List.map (fun c -> Alcotest.test_case c.name `Quick (test_case c)) cases
        @ [ Alcotest.test_case "allocating quorum count breaks it" `Quick test_budget_bites ] );
      ( "codec",
        [ Alcotest.test_case "batched wire path" `Quick test_codec_path;
          Alcotest.test_case "closure-allocating varints break it" `Quick test_codec_budget_bites ]
      ) ]
