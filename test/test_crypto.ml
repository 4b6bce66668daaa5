(* Tests for the simulated threshold-signature scheme (Appendix F interface)
   and plain signatures. *)

module Threshold = Bca_crypto.Threshold
module Digsig = Bca_crypto.Digsig
module Keyed_mac = Bca_crypto.Keyed_mac
module Rng = Bca_util.Rng

let setup () = Threshold.setup ~n:4 ~seed:42L

let test_share_validate () =
  let t, keys = setup () in
  let share = Threshold.sign keys.(1) ~tag:"echo/1/0" in
  Alcotest.(check bool) "valid" true (Threshold.share_validate t ~tag:"echo/1/0" share);
  Alcotest.(check int) "signer" 1 (Threshold.share_signer share)

let test_share_wrong_tag () =
  let t, keys = setup () in
  let share = Threshold.sign keys.(1) ~tag:"echo/1/0" in
  Alcotest.(check bool) "wrong tag rejected" false
    (Threshold.share_validate t ~tag:"echo/1/1" share)

let test_share_cross_setup () =
  let t, _ = setup () in
  let _, keys2 = Threshold.setup ~n:4 ~seed:43L in
  let share = Threshold.sign keys2.(0) ~tag:"m" in
  Alcotest.(check bool) "foreign key rejected" false (Threshold.share_validate t ~tag:"m" share)

let test_combine_threshold () =
  let t, keys = setup () in
  let tag = "echo3/2/1" in
  let shares k = List.init k (fun i -> Threshold.sign keys.(i) ~tag) in
  Alcotest.(check bool) "too few" true (Threshold.combine t ~k:3 ~tag (shares 2) = None);
  (match Threshold.combine t ~k:3 ~tag (shares 3) with
  | Some sigma ->
    Alcotest.(check bool) "verifies" true (Threshold.verify t ~tag sigma);
    Alcotest.(check int) "records k" 3 (Threshold.threshold_of sigma)
  | None -> Alcotest.fail "combine failed");
  (* duplicate shares from one signer do not count twice *)
  let dup = List.init 3 (fun _ -> Threshold.sign keys.(0) ~tag) in
  Alcotest.(check bool) "duplicates rejected" true (Threshold.combine t ~k:2 ~tag dup = None)

let test_combine_mixed_tags () =
  let t, keys = setup () in
  let s1 = Threshold.sign keys.(0) ~tag:"a" in
  let s2 = Threshold.sign keys.(1) ~tag:"b" in
  Alcotest.(check bool) "mismatched shares filtered" true
    (Threshold.combine t ~k:2 ~tag:"a" [ s1; s2 ] = None)

let test_verify_wrong_tag () =
  let t, keys = setup () in
  let tag = "x" in
  let shares = List.init 2 (fun i -> Threshold.sign keys.(i) ~tag) in
  let sigma = Option.get (Threshold.combine t ~k:2 ~tag shares) in
  Alcotest.(check bool) "wrong tag" false (Threshold.verify t ~tag:"y" sigma)

let test_dual_thresholds () =
  (* the same setup serves k = t+1 and k = 2t+1; certificates are not
     interchangeable because the threshold is baked in *)
  let t, keys = setup () in
  let tag = "m" in
  let shares = List.init 3 (fun i -> Threshold.sign keys.(i) ~tag) in
  let sig2 = Option.get (Threshold.combine t ~k:2 ~tag shares) in
  let sig3 = Option.get (Threshold.combine t ~k:3 ~tag shares) in
  Alcotest.(check bool) "different thresholds" true
    (Threshold.threshold_of sig2 = 2 && Threshold.threshold_of sig3 = 3);
  Alcotest.(check bool) "both verify" true
    (Threshold.verify t ~tag sig2 && Threshold.verify t ~tag sig3)

let test_digsig_roundtrip () =
  let t, keys = Digsig.setup ~n:3 ~seed:7L in
  let s = Digsig.sign keys.(2) ~tag:"hello" in
  Alcotest.(check bool) "verifies" true (Digsig.verify t ~tag:"hello" s);
  Alcotest.(check int) "signer" 2 (Digsig.signer s);
  Alcotest.(check bool) "wrong tag" false (Digsig.verify t ~tag:"bye" s)

let tamper_resistance =
  QCheck2.Test.make ~count:200 ~name:"share for tag A never validates for tag B"
    QCheck2.Gen.(pair (small_string ~gen:printable) (small_string ~gen:printable))
    (fun (a, b) ->
      QCheck2.assume (a <> b);
      let t, keys = setup () in
      let share = Threshold.sign keys.(0) ~tag:a in
      not (Threshold.share_validate t ~tag:b share))

(* The keyed MAC as first written: one SplitMix64 generator per tag byte.
   Kept here as the reference the inline fold must match bit for bit. *)
let reference_hash ~salt secret tag =
  let acc = ref secret in
  String.iter
    (fun c ->
      let rng = Rng.create (Int64.add !acc (Int64.of_int (Char.code c + salt))) in
      acc := Rng.int64 rng)
    tag;
  let rng = Rng.create (Int64.add !acc (Int64.of_int (String.length tag))) in
  Rng.int64 rng

(* any byte, 0-255, and the empty tag *)
let tag_gen = QCheck2.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 40))

let mac_matches_reference =
  QCheck2.Test.make ~count:1000 ~name:"keyed MAC matches the Rng reference"
    ~print:QCheck2.Print.(triple int64 int string)
    QCheck2.Gen.(triple ui64 (oneofl [ 131; 977 ]) tag_gen)
    (fun (secret, salt, tag) ->
      Int64.equal (Keyed_mac.hash ~salt secret tag) (reference_hash ~salt secret tag)
      && Int64.equal (Keyed_mac.hash ~salt secret "") (reference_hash ~salt secret ""))

(* End to end: the scheme's shares and certificates are the reference MAC
   under the dealt secrets (drawn from the setup seed in party order, the
   dealer's last), so no signature changes bits. *)
let test_threshold_macs_unchanged () =
  let n = 4 and seed = 42L in
  let t, keys = Threshold.setup ~n ~seed in
  let rng = Rng.create seed in
  let secrets = Array.init n (fun _ -> Rng.int64 rng) in
  let dealer = Rng.int64 rng in
  let tag = "echo/aba/3/1" in
  let shares = List.init 3 (fun i -> Threshold.sign keys.(i) ~tag) in
  List.iteri
    (fun i s ->
      let _, _, mac = Threshold.share_repr s in
      Alcotest.(check int64) "share MAC" (reference_hash ~salt:131 secrets.(i) tag) mac)
    shares;
  match Threshold.combine t ~k:3 ~tag shares with
  | None -> Alcotest.fail "combine failed"
  | Some sigma ->
    Alcotest.(check int64) "certificate"
      (reference_hash ~salt:131 dealer (Printf.sprintf "%d|%s" 3 tag))
      (Threshold.fingerprint sigma)

(* Words allocated per call must not grow with the tag: the fold runs on
   unboxed words, and only the boxed result is allocated. *)
let test_mac_allocation_flat () =
  let words_per_call f =
    let calls = 1000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (f ()) : int64)
    done;
    (Gc.minor_words () -. w0) /. float_of_int calls
  in
  let short = "e" and long = String.make 4096 'x' in
  let per tag = words_per_call (fun () -> Keyed_mac.hash ~salt:131 7L tag) in
  let s = per short and l = per long in
  Alcotest.(check bool)
    (Printf.sprintf "hash: %.2f words/call on 1 byte, %.2f on 4096" s l)
    true
    (l <= s +. 0.5 && s <= 8.)

let () =
  Alcotest.run "crypto"
    [ ( "threshold",
        [ Alcotest.test_case "share validate" `Quick test_share_validate;
          Alcotest.test_case "wrong tag" `Quick test_share_wrong_tag;
          Alcotest.test_case "cross setup" `Quick test_share_cross_setup;
          Alcotest.test_case "combine thresholds" `Quick test_combine_threshold;
          Alcotest.test_case "mixed tags" `Quick test_combine_mixed_tags;
          Alcotest.test_case "verify wrong tag" `Quick test_verify_wrong_tag;
          Alcotest.test_case "dual thresholds" `Quick test_dual_thresholds;
          QCheck_alcotest.to_alcotest tamper_resistance ] );
      ("digsig", [ Alcotest.test_case "roundtrip" `Quick test_digsig_roundtrip ]);
      ( "keyed-mac",
        [ QCheck_alcotest.to_alcotest mac_matches_reference;
          Alcotest.test_case "threshold MACs unchanged" `Quick test_threshold_macs_unchanged;
          Alcotest.test_case "allocation flat in tag length" `Quick test_mac_allocation_flat ] ) ]
