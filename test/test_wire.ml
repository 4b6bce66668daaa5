(* Wire-format tests: canonical round-trips for every constructor of every
   codec, frame accounting, and adversarial decoding - random bytes,
   truncations, flipped CRCs, future versions, wrong codec ids - which must
   yield typed errors, never exceptions.  Also the stream Reader: chunked
   reassembly is split-point independent and a corrupted stream poisons the
   reader permanently. *)

module W = Bca_wire.Wire
module Wf = Bca_core.Wirefmt
module Value = Bca_util.Value
module Types = Bca_core.Types
module Threshold = Bca_crypto.Threshold
module Tcoin = Bca_coin.Threshold_coin

(* The same applicative functor paths Wirefmt uses, so the message types
   are equal by construction. *)
module Crash_strong = Bca_core.Aa_strong.Make (Bca_core.Bca_crash)
module Crash_weak = Bca_core.Aa_weak.Make (Bca_core.Gbca_crash)
module Byz_strong = Bca_core.Aa_strong.Make (Bca_core.Bca_byz)
module Byz_weak = Bca_core.Aa_weak.Make (Bca_core.Gbca_byz)
module Byz_tsig = Bca_core.Aa_strong.Make (Bca_core.Bca_tsig)

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)
(* ------------------------------------------------------------------ *)

open QCheck2

let gen_value = Gen.(map Value.of_bool bool)

let gen_cvalue =
  Gen.oneofl [ Types.Bot; Types.Val Value.V0; Types.Val Value.V1 ]

let gen_round = Gen.int_bound 100_000

let gen_tag_string = Gen.(string_size ~gen:(char_range '\x00' '\xff') (int_bound 24))

let gen_i64 = Gen.(map Int64.of_int int)

let gen_share =
  Gen.map
    (fun ((signer, tag), mac) -> Threshold.share_unsafe_of_repr ~signer ~tag ~mac)
    Gen.(pair (pair (int_bound 1000) gen_tag_string) gen_i64)

let gen_signature =
  Gen.map
    (fun ((tag, k), cert) -> Threshold.signature_unsafe_of_repr ~tag ~k ~cert)
    Gen.(pair (pair gen_tag_string (int_bound 1000)) gen_i64)

let gen_crash_strong : Crash_strong.msg Gen.t =
  Gen.oneof
    [ Gen.map (fun v -> Crash_strong.Committed v) gen_value;
      Gen.map2 (fun r v -> Crash_strong.Bca (r, Bca_core.Bca_crash.MVal v)) gen_round gen_value;
      Gen.map2
        (fun r cv -> Crash_strong.Bca (r, Bca_core.Bca_crash.MEcho cv))
        gen_round gen_cvalue ]

let gen_crash_weak : Crash_weak.msg Gen.t =
  Gen.oneof
    [ Gen.map (fun v -> Crash_weak.Committed v) gen_value;
      Gen.map2 (fun r v -> Crash_weak.Gbca (r, Bca_core.Gbca_crash.MVal v)) gen_round gen_value;
      Gen.map2
        (fun r cv -> Crash_weak.Gbca (r, Bca_core.Gbca_crash.MEcho cv))
        gen_round gen_cvalue;
      Gen.map2
        (fun r cv -> Crash_weak.Gbca (r, Bca_core.Gbca_crash.MEcho2 cv))
        gen_round gen_cvalue ]

let gen_byz_strong : Byz_strong.msg Gen.t =
  Gen.oneof
    [ Gen.map (fun v -> Byz_strong.Committed v) gen_value;
      Gen.map2 (fun r v -> Byz_strong.Bca (r, Bca_core.Bca_byz.MEcho v)) gen_round gen_value;
      Gen.map2 (fun r v -> Byz_strong.Bca (r, Bca_core.Bca_byz.MEcho2 v)) gen_round gen_value;
      Gen.map2
        (fun r cv -> Byz_strong.Bca (r, Bca_core.Bca_byz.MEcho3 cv))
        gen_round gen_cvalue ]

let gen_byz_weak : Byz_weak.msg Gen.t =
  Gen.oneof
    [ Gen.map (fun v -> Byz_weak.Committed v) gen_value;
      Gen.map2 (fun r v -> Byz_weak.Gbca (r, Bca_core.Gbca_byz.MEcho v)) gen_round gen_value;
      Gen.map2 (fun r v -> Byz_weak.Gbca (r, Bca_core.Gbca_byz.MEcho2 v)) gen_round gen_value;
      Gen.map2
        (fun r cv -> Byz_weak.Gbca (r, Bca_core.Gbca_byz.MEcho3 cv))
        gen_round gen_cvalue;
      Gen.map2
        (fun r cv -> Byz_weak.Gbca (r, Bca_core.Gbca_byz.MEcho4 cv))
        gen_round gen_cvalue;
      Gen.map2
        (fun r cv -> Byz_weak.Gbca (r, Bca_core.Gbca_byz.MEcho5 cv))
        gen_round gen_cvalue ]

let gen_byz_tsig : Byz_tsig.msg Gen.t =
  Gen.oneof
    [ Gen.map (fun v -> Byz_tsig.Committed v) gen_value;
      Gen.map2
        (fun r (v, s) -> Byz_tsig.Bca (r, Bca_core.Bca_tsig.MEcho (v, s)))
        gen_round (Gen.pair gen_value gen_share);
      Gen.map2
        (fun r (v, c) -> Byz_tsig.Bca (r, Bca_core.Bca_tsig.MEcho2 (v, c)))
        gen_round (Gen.pair gen_value gen_signature);
      Gen.map2
        (fun r ((cv, certs), share_opt) ->
          Byz_tsig.Bca (r, Bca_core.Bca_tsig.MEcho3 (cv, certs, share_opt)))
        gen_round
        (Gen.pair
           (Gen.pair gen_cvalue (Gen.list_size (Gen.int_bound 4) gen_signature))
           (Gen.option gen_share)) ]

let gen_coin_share : Tcoin.share Gen.t = Gen.map Tcoin.share_of_threshold gen_share

let gen_sender = Gen.int_bound W.max_sender

(* ------------------------------------------------------------------ *)
(* Round-trips                                                          *)
(* ------------------------------------------------------------------ *)

let body_of codec m =
  let buf = Buffer.create 64 in
  codec.W.enc buf m;
  Buffer.contents buf

(* encode -> decode -> re-encode must be the identity on bytes (canonical
   encoding), and the header fields must survive.  Byte equality of the
   re-encoding implies message equality without needing polymorphic
   compare on abstract crypto values. *)
let roundtrip_test name codec gen =
  Test.make ~count:400 ~name:(name ^ " round-trips") (Gen.pair gen gen_sender)
    (fun (m, sender) ->
      let s = W.encode codec ~sender m in
      match W.decode codec s with
      | Error e -> Test.fail_reportf "decode failed: %s" (W.error_to_string e)
      | Ok (m', f) ->
        if f.W.sender <> sender then Test.fail_reportf "sender %d became %d" sender f.W.sender;
        if f.W.codec_id <> codec.W.id then Test.fail_report "codec id mangled";
        if not (String.equal (body_of codec m') (body_of codec m)) then
          Test.fail_report "re-encoding differs (decode is not inverse)";
        if W.frame_bytes f <> String.length s then Test.fail_report "frame_bytes mismatch";
        if W.frame_words f <> W.words_of_bytes (String.length s) then
          Test.fail_report "frame_words mismatch";
        true)

let roundtrips =
  [ roundtrip_test "crash-strong" Wf.crash_strong gen_crash_strong;
    roundtrip_test "crash-weak" Wf.crash_weak gen_crash_weak;
    roundtrip_test "byz-strong" Wf.byz_strong gen_byz_strong;
    roundtrip_test "byz-weak" Wf.byz_weak gen_byz_weak;
    roundtrip_test "byz-tsig" Wf.byz_tsig gen_byz_tsig;
    roundtrip_test "coin-share" Wf.coin_share gen_coin_share ]

(* ------------------------------------------------------------------ *)
(* Adversarial decoding: typed errors, never exceptions                 *)
(* ------------------------------------------------------------------ *)

(* Exercise every decode entry point on arbitrary bytes; the property is
   only "no exception escapes" - random bytes occasionally form a valid
   frame and that is fine. *)
let decode_everything s =
  (match W.decode_frame s ~pos:0 with
  | Ok (f, _) ->
    ignore (W.decode_body Wf.crash_strong f : (_, W.error) result);
    ignore (W.decode_body Wf.byz_tsig f : (_, W.error) result)
  | Error (_ : W.error) -> ());
  ignore (W.decode Wf.byz_strong s : (_, W.error) result);
  let r = W.Reader.create () in
  W.Reader.feed r s ~pos:0 ~len:(String.length s);
  let rec drain () =
    match W.Reader.next r with
    | Ok (Some _) -> drain ()
    | Ok None | Error (_ : W.error) -> ()
  in
  drain ()

let prop_random_bytes_never_raise =
  Test.make ~count:1000 ~name:"random bytes decode to typed errors, never raise"
    Gen.(string_size ~gen:(char_range '\x00' '\xff') (int_bound 120))
    (fun s ->
      decode_everything s;
      true)

(* A valid frame with one byte flipped must still decode without raising;
   flips outside the sender field cannot silently succeed (magic, version,
   length, CRC or body all tie the bytes down). *)
let prop_single_byte_flip =
  Test.make ~count:600 ~name:"one-byte corruption of a valid frame never raises"
    (Gen.pair (Gen.pair gen_byz_tsig gen_sender) (Gen.pair (Gen.int_bound 10_000) (Gen.int_range 1 255))
    )
    (fun ((m, sender), (pos_seed, xor)) ->
      let s = W.encode Wf.byz_tsig ~sender m in
      let pos = pos_seed mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor xor));
      let s' = Bytes.to_string b in
      decode_everything s';
      (match W.decode Wf.byz_tsig s' with
      | Ok _ when pos = 4 || pos = 5 -> () (* sender bytes are not covered by the CRC *)
      | Ok _ -> Test.fail_reportf "corruption at offset %d went undetected" pos
      | Error (_ : W.error) -> ());
      true)

let prop_truncation =
  Test.make ~count:200 ~name:"every proper prefix is Truncated, never an exception"
    (Gen.pair gen_byz_weak gen_sender)
    (fun (m, sender) ->
      let s = W.encode Wf.byz_weak ~sender m in
      for len = 0 to String.length s - 1 do
        match W.decode_frame (String.sub s 0 len) ~pos:0 with
        | Ok _ -> Test.fail_reportf "prefix of %d/%d bytes decoded" len (String.length s)
        | Error (W.Truncated _) -> ()
        | Error e ->
          Test.fail_reportf "prefix of %d bytes: unexpected %s" len (W.error_to_string e)
      done;
      true)

let patch s pos c =
  let b = Bytes.of_string s in
  Bytes.set b pos c;
  Bytes.to_string b

let test_flipped_crc () =
  let s = W.encode Wf.crash_strong ~sender:2 (Crash_strong.Committed Value.V1) in
  (* flip a CRC byte (offsets 10-13) and, separately, a body byte *)
  List.iter
    (fun pos ->
      let s' = patch s pos (Char.chr (Char.code s.[pos] lxor 0x40)) in
      match W.decode Wf.crash_strong s' with
      | Error (W.Bad_crc _) -> ()
      | Error e -> Alcotest.failf "flip at %d: expected Bad_crc, got %s" pos (W.error_to_string e)
      | Ok _ -> Alcotest.failf "flip at %d went undetected" pos)
    [ 10; 13; W.header_bytes; String.length s - 1 ]

let test_future_version () =
  let s = W.encode Wf.byz_strong ~sender:0 (Byz_strong.Committed Value.V0) in
  let s' = patch s 2 (Char.chr (W.version + 1)) in
  match W.decode_frame s' ~pos:0 with
  | Error (W.Unsupported_version v) ->
    Alcotest.(check int) "reported version" (W.version + 1) v
  | Error e -> Alcotest.failf "expected Unsupported_version, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "future version accepted"

let test_bad_magic () =
  let s = W.encode Wf.byz_strong ~sender:0 (Byz_strong.Committed Value.V0) in
  match W.decode_frame (patch s 0 '\x00') ~pos:0 with
  | Error W.Bad_magic -> ()
  | Error e -> Alcotest.failf "expected Bad_magic, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "bad magic accepted"

let test_wrong_codec () =
  let s = W.encode Wf.crash_strong ~sender:1 (Crash_strong.Committed Value.V0) in
  match W.decode Wf.byz_strong s with
  | Error (W.Wrong_codec { expected; got }) ->
    Alcotest.(check int) "expected id" Wf.byz_strong.W.id expected;
    Alcotest.(check int) "got id" Wf.crash_strong.W.id got
  | Error e -> Alcotest.failf "expected Wrong_codec, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "wrong codec accepted"

let test_oversized () =
  (* hand-build a header claiming a body one past the decoder's limit *)
  let buf = Buffer.create W.header_bytes in
  Buffer.add_char buf '\xBC';
  Buffer.add_char buf '\xA1';
  Buffer.add_char buf (Char.chr W.version);
  Buffer.add_char buf '\x03';
  W.Put.u16 buf 0;
  W.Put.u32 buf (W.default_max_body + 1);
  W.Put.u32 buf 0;
  match W.decode_frame (Buffer.contents buf) ~pos:0 with
  | Error (W.Oversized { len; limit }) ->
    Alcotest.(check int) "claimed len" (W.default_max_body + 1) len;
    Alcotest.(check int) "limit" W.default_max_body limit
  | Error e -> Alcotest.failf "expected Oversized, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized frame accepted"

(* 9-byte LEB128 with payload bit 62 set: the value wraps OCaml's 63-bit
   int negative.  A CRC-valid frame carrying it as a string length (or a
   list count) must decode to Malformed_body, not raise out of the
   decoder (regression: String.sub / List.init Invalid_argument escaped). *)
let overflow_varint = "\x80\x80\x80\x80\x80\x80\x80\x80\x40"

let test_varint_overflow_string_len () =
  (* byz-tsig MEcho: tag 1, round 0, value V0, share signer 0, then the
     share's tag-string length is the overflowing varint *)
  let body = "\x01\x00\x00\x00" ^ overflow_varint in
  let s = W.encode_raw ~codec_id:Wf.byz_tsig.W.id ~sender:0 body in
  decode_everything s;
  match W.decode Wf.byz_tsig s with
  | Error (W.Malformed_body _) -> ()
  | Error e -> Alcotest.failf "expected Malformed_body, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "overflowing varint accepted"

let test_varint_overflow_list_count () =
  (* byz-tsig MEcho3: tag 3, round 0, cvalue Bot, then the cert-list count
     is the overflowing varint *)
  let body = "\x03\x00\x00" ^ overflow_varint in
  let s = W.encode_raw ~codec_id:Wf.byz_tsig.W.id ~sender:0 body in
  decode_everything s;
  match W.decode Wf.byz_tsig s with
  | Error (W.Malformed_body _) -> ()
  | Error e -> Alcotest.failf "expected Malformed_body, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "overflowing list count accepted"

let test_varint_max_int () =
  (* the largest value that does NOT overflow still round-trips *)
  let buf = Buffer.create 16 in
  W.Put.varint buf max_int;
  let s = Buffer.contents buf in
  let g = W.Get.create s ~pos:0 ~len:(String.length s) in
  Alcotest.(check int) "max_int round-trips" max_int (W.Get.varint g)

let test_trailing_body_bytes () =
  let body = body_of Wf.byz_strong (Byz_strong.Committed Value.V1) ^ "\x00" in
  let s = W.encode_raw ~codec_id:Wf.byz_strong.W.id ~sender:0 body in
  match W.decode Wf.byz_strong s with
  | Error (W.Malformed_body _) -> ()
  | Error e -> Alcotest.failf "expected Malformed_body, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "trailing body bytes accepted"

(* ------------------------------------------------------------------ *)
(* Batch frames                                                         *)
(* ------------------------------------------------------------------ *)

module B = Bca_wire.Batch

let gen_record_body = Gen.(string_size ~gen:(char_range '\x00' '\xff') (int_bound 48))

let gen_records = Gen.(list_size (int_range 1 12) (pair (int_bound 100_000) gen_record_body))

let iter_view_records v =
  let got = ref [] in
  match
    B.iter_view v ~record:(fun ~instance g ->
        got := (instance, W.Get.take g (W.Get.remaining g)) :: !got)
  with
  | Ok (inner, count) -> Ok (inner, count, List.rev !got)
  | Error e -> Error e

(* Both decode paths - the copying [decode] and the in-place [iter_view] -
   must be exact inverses of [encode], agreeing with each other on every
   record. *)
let prop_batch_roundtrip =
  Test.make ~count:400 ~name:"batch frames round-trip (decode and iter_view)"
    (Gen.pair gen_records gen_sender)
    (fun (records, sender) ->
      let s = B.encode ~inner_codec_id:Wf.byz_strong.W.id ~sender records in
      (match B.decode s with
      | Error e -> Test.fail_reportf "decode: %s" (W.error_to_string e)
      | Ok d ->
        if d.B.sender <> sender then Test.fail_report "sender mangled";
        if d.B.inner_codec_id <> Wf.byz_strong.W.id then Test.fail_report "inner id mangled";
        if d.B.records <> records then Test.fail_report "decode: records differ");
      (match W.decode_frame_view s ~pos:0 with
      | Error e -> Test.fail_reportf "frame view: %s" (W.error_to_string e)
      | Ok (v, used) ->
        if used <> String.length s then Test.fail_report "frame shorter than string";
        (match iter_view_records v with
        | Error e -> Test.fail_reportf "iter_view: %s" (W.error_to_string e)
        | Ok (inner, count, got) ->
          if inner <> Wf.byz_strong.W.id then Test.fail_report "iter_view: inner id mangled";
          if count <> List.length records then Test.fail_report "iter_view: count mangled";
          if got <> records then Test.fail_report "iter_view: records differ"));
      true)

(* Batch records carrying real protocol messages decode back to the same
   messages in place - the receive path the multi-instance executor runs. *)
let prop_batch_protocol_records =
  Test.make ~count:200 ~name:"batch records decode in place with the stack codec"
    (Gen.list_size (Gen.int_range 1 8) (Gen.pair (Gen.int_bound 63) gen_byz_weak))
    (fun msgs ->
      let records = List.map (fun (k, m) -> (k, body_of Wf.byz_weak m)) msgs in
      let s = B.encode ~inner_codec_id:Wf.byz_weak.W.id ~sender:1 records in
      match W.decode_frame_view s ~pos:0 with
      | Error e -> Test.fail_reportf "frame view: %s" (W.error_to_string e)
      | Ok (v, _) ->
        let got = ref [] in
        (match
           B.iter_view v ~record:(fun ~instance g ->
               let m = Wf.byz_weak.W.dec g in
               W.Get.expect_end g;
               got := (instance, m) :: !got)
         with
        | Error e -> Test.fail_reportf "iter_view: %s" (W.error_to_string e)
        | Ok (_, _) ->
          List.iter2
            (fun (k, m) (k', m') ->
              if k <> k' then Test.fail_report "instance id mangled";
              if not (String.equal (body_of Wf.byz_weak m) (body_of Wf.byz_weak m')) then
                Test.fail_report "record decoded to a different message")
            msgs (List.rev !got));
        true)

let prop_batch_truncation =
  Test.make ~count:100 ~name:"batch frame prefixes are Truncated, never an exception"
    gen_records
    (fun records ->
      let s = B.encode ~inner_codec_id:Wf.byz_strong.W.id ~sender:0 records in
      for len = 0 to String.length s - 1 do
        match B.decode (String.sub s 0 len) with
        | Ok _ -> Test.fail_reportf "prefix of %d/%d bytes decoded" len (String.length s)
        | Error (W.Truncated _) -> ()
        | Error e ->
          Test.fail_reportf "prefix of %d bytes: unexpected %s" len (W.error_to_string e)
      done;
      true)

let sample_batch () =
  B.encode ~inner_codec_id:Wf.byz_strong.W.id ~sender:2
    [ (0, body_of Wf.byz_strong (Byz_strong.Committed Value.V0));
      (7, body_of Wf.byz_strong (Byz_strong.Committed Value.V1)) ]

let test_batch_crc_flip () =
  let s = sample_batch () in
  (* a flip anywhere in the body (including a record) dies on the outer CRC
     before any record is touched *)
  List.iter
    (fun pos ->
      let s' = patch s pos (Char.chr (Char.code s.[pos] lxor 0x20)) in
      match B.decode s' with
      | Error (W.Bad_crc _) -> ()
      | Error e -> Alcotest.failf "flip at %d: expected Bad_crc, got %s" pos (W.error_to_string e)
      | Ok _ -> Alcotest.failf "flip at %d went undetected" pos)
    [ 10; W.header_bytes; W.header_bytes + 2; String.length s - 1 ]

(* Hand-build a batch body (version, inner id, count, then raw record
   region) and frame it under a valid CRC - structural violations past the
   outer framing. *)
let raw_batch ?(version = B.batch_version) ?(inner = Wf.byz_strong.W.id) ~count region =
  let buf = Buffer.create 32 in
  W.Put.u8 buf version;
  W.Put.u8 buf inner;
  W.Put.varint buf count;
  Buffer.add_string buf region;
  W.encode_raw ~codec_id:B.codec_id ~sender:0 (Buffer.contents buf)

let record ~instance body =
  let buf = Buffer.create 16 in
  B.add_record buf ~instance body;
  Buffer.contents buf

let check_malformed what s =
  (match B.decode s with
  | Error (W.Malformed_body _) -> ()
  | Error e -> Alcotest.failf "%s: expected Malformed_body, got %s" what (W.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: accepted" what);
  match W.decode_frame_view s ~pos:0 with
  | Error e -> Alcotest.failf "%s: outer frame rejected: %s" what (W.error_to_string e)
  | Ok (v, _) -> (
    match iter_view_records v with
    | Error (W.Malformed_body _) -> ()
    | Error e ->
      Alcotest.failf "%s: iter_view expected Malformed_body, got %s" what (W.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: iter_view accepted" what)

let test_batch_empty () = check_malformed "empty batch (count=0)" (raw_batch ~count:0 "")

let test_batch_future_version () =
  check_malformed "future batch version"
    (raw_batch ~version:(B.batch_version + 1) ~count:1 (record ~instance:0 "x"))

let test_batch_nested () =
  check_malformed "nested batch inner id"
    (raw_batch ~inner:B.codec_id ~count:1 (record ~instance:0 "x"));
  (* the builder refuses to construct one, and rejects empty batches *)
  (match B.make_body ~inner_codec_id:B.codec_id ~count:1 (Buffer.create 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "make_body accepted a nested batch id");
  match B.make_body ~inner_codec_id:Wf.byz_strong.W.id ~count:0 (Buffer.create 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "make_body accepted count=0"

let test_batch_inflated_count () =
  check_malformed "count exceeds records"
    (raw_batch ~count:3 (record ~instance:0 "a" ^ record ~instance:1 "b"))

let test_batch_record_overrun () =
  (* record claims 200 body bytes, only 3 present *)
  let buf = Buffer.create 16 in
  W.Put.varint buf 5;
  W.Put.varint buf 200;
  Buffer.add_string buf "abc";
  check_malformed "record overruns body" (raw_batch ~count:1 (Buffer.contents buf))

let test_batch_trailing () =
  check_malformed "trailing bytes after last record"
    (raw_batch ~count:1 (record ~instance:0 "x" ^ "\x00"))

let test_batch_oversize () =
  let s = sample_batch () in
  match B.decode ~max_body:4 s with
  | Error (W.Oversized _) -> ()
  | Error e -> Alcotest.failf "expected Oversized, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized batch accepted"

let test_batch_wrong_codec () =
  let s = W.encode Wf.byz_strong ~sender:0 (Byz_strong.Committed Value.V0) in
  (match B.decode s with
  | Error (W.Wrong_codec { expected; got }) ->
    Alcotest.(check int) "expected id" B.codec_id expected;
    Alcotest.(check int) "got id" Wf.byz_strong.W.id got
  | Error e -> Alcotest.failf "expected Wrong_codec, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "non-batch frame decoded as batch");
  match W.decode_frame_view s ~pos:0 with
  | Error e -> Alcotest.failf "outer frame: %s" (W.error_to_string e)
  | Ok (v, _) -> (
    match iter_view_records v with
    | Error (W.Wrong_codec _) -> ()
    | Error e -> Alcotest.failf "iter_view expected Wrong_codec, got %s" (W.error_to_string e)
    | Ok _ -> Alcotest.fail "iter_view accepted a non-batch frame")

(* A [record] callback rejecting its record (as the executor's instance
   range check and codec decode do) surfaces as the batch's own decode
   error - the collect-then-deliver contract. *)
let test_batch_record_callback_rejects () =
  let s = sample_batch () in
  match W.decode_frame_view s ~pos:0 with
  | Error e -> Alcotest.failf "outer frame: %s" (W.error_to_string e)
  | Ok (v, _) -> (
    match
      B.iter_view v ~record:(fun ~instance g ->
          ignore (W.Get.take g (W.Get.remaining g) : string);
          if instance = 7 then raise (W.Get.Malformed "instance out of range"))
    with
    | Error (W.Malformed_body _) -> ()
    | Error e -> Alcotest.failf "expected Malformed_body, got %s" (W.error_to_string e)
    | Ok _ -> Alcotest.fail "rejecting callback did not fail the batch")

let batch_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_batch_roundtrip; prop_batch_protocol_records; prop_batch_truncation ]
  @ [ Alcotest.test_case "CRC flip caught before records" `Quick test_batch_crc_flip;
      Alcotest.test_case "empty batch rejected" `Quick test_batch_empty;
      Alcotest.test_case "future batch version rejected" `Quick test_batch_future_version;
      Alcotest.test_case "nested batch rejected" `Quick test_batch_nested;
      Alcotest.test_case "inflated count rejected" `Quick test_batch_inflated_count;
      Alcotest.test_case "record overrun rejected" `Quick test_batch_record_overrun;
      Alcotest.test_case "trailing record bytes rejected" `Quick test_batch_trailing;
      Alcotest.test_case "oversized batch rejected" `Quick test_batch_oversize;
      Alcotest.test_case "wrong codec id rejected" `Quick test_batch_wrong_codec;
      Alcotest.test_case "record callback rejection fails the batch" `Quick
        test_batch_record_callback_rejects ]

(* ------------------------------------------------------------------ *)
(* Stream reassembly                                                    *)
(* ------------------------------------------------------------------ *)

(* Concatenated frames split at arbitrary chunk boundaries reassemble to
   the same frame sequence. *)
let prop_reader_chunking =
  Test.make ~count:200 ~name:"Reader reassembly is split-point independent"
    (Gen.pair (Gen.list_size (Gen.int_range 1 8) gen_byz_weak) (Gen.int_range 1 13))
    (fun (msgs, chunk) ->
      let stream =
        String.concat "" (List.mapi (fun i m -> W.encode Wf.byz_weak ~sender:(i mod 4) m) msgs)
      in
      let r = W.Reader.create () in
      let got = ref [] in
      let drain () =
        let rec go () =
          match W.Reader.next r with
          | Ok (Some f) ->
            got := f :: !got;
            go ()
          | Ok None -> ()
          | Error e -> Test.fail_reportf "reader error: %s" (W.error_to_string e)
        in
        go ()
      in
      let pos = ref 0 in
      while !pos < String.length stream do
        let len = min chunk (String.length stream - !pos) in
        W.Reader.feed r stream ~pos:!pos ~len;
        pos := !pos + len;
        drain ()
      done;
      if W.Reader.buffered r <> 0 then Test.fail_report "bytes left buffered";
      let frames = List.rev !got in
      if List.length frames <> List.length msgs then
        Test.fail_reportf "got %d frames for %d messages" (List.length frames) (List.length msgs);
      List.iteri
        (fun i (f : W.frame) ->
          match W.decode_body Wf.byz_weak f with
          | Error e -> Test.fail_reportf "frame %d body: %s" i (W.error_to_string e)
          | Ok m ->
            if not (String.equal (body_of Wf.byz_weak m) (body_of Wf.byz_weak (List.nth msgs i)))
            then Test.fail_reportf "frame %d decoded to a different message" i)
        frames;
      true)

let test_reader_poisoned () =
  let good = W.encode Wf.byz_strong ~sender:1 (Byz_strong.Committed Value.V0) in
  let bad = patch good 12 (Char.chr (Char.code good.[12] lxor 1)) in
  let r = W.Reader.create () in
  W.Reader.feed r bad ~pos:0 ~len:(String.length bad);
  (match W.Reader.next r with
  | Error (W.Bad_crc _) -> ()
  | Error e -> Alcotest.failf "expected Bad_crc, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "corrupt frame extracted");
  (* sticky: even after feeding a pristine frame the reader stays dead *)
  W.Reader.feed r good ~pos:0 ~len:(String.length good);
  match W.Reader.next r with
  | Error (_ : W.error) -> ()
  | Ok _ -> Alcotest.fail "poisoned reader recovered"

let test_codec_ids_distinct () =
  let ids =
    List.map
      (fun (name, id) -> ignore name; id)
      [ ("crash-strong", Wf.crash_strong.W.id); ("crash-weak", Wf.crash_weak.W.id);
        ("byz-strong", Wf.byz_strong.W.id); ("byz-weak", Wf.byz_weak.W.id);
        ("byz-tsig", Wf.byz_tsig.W.id); ("coin-share", Wf.coin_share.W.id) ]
  in
  Alcotest.(check int) "all codec ids distinct" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun name ->
      match Wf.codec_id_of_spec_name name with
      | Some _ -> ()
      | None -> Alcotest.failf "no codec id for %s" name)
    [ "crash-strong"; "crash-weak"; "crash-local"; "byz-strong"; "byz-weak"; "byz-tsig" ]

(* ------------------------------------------------------------------ *)
(* CRC-32 against known answers and the bit-at-a-time reference         *)
(* ------------------------------------------------------------------ *)

module Crc_ref = Bca_test_helpers.Crc_ref
module Reader_ref = Bca_test_helpers.Reader_ref

let test_crc_known_answers () =
  Alcotest.(check int32) "empty string" 0x00000000l (W.crc32 "" ~pos:0 ~len:0);
  Alcotest.(check int32) "\"123456789\"" 0xCBF43926l (W.crc32 "123456789" ~pos:0 ~len:9);
  Alcotest.(check int32) "a slice" 0xCBF43926l (W.crc32 "xx123456789y" ~pos:2 ~len:9)

let prop_crc_matches_reference =
  Test.make ~count:1000 ~name:"crc32 of any slice matches the bit-at-a-time reference"
    Gen.(
      string_size ~gen:(char_range '\x00' '\xff') (int_bound 300) >>= fun s ->
      int_bound (String.length s) >>= fun pos ->
      int_bound (String.length s - pos) >|= fun len -> (s, pos, len))
    (fun (s, pos, len) -> Int32.equal (W.crc32 s ~pos ~len) (Crc_ref.crc32 s ~pos ~len))

(* ------------------------------------------------------------------ *)
(* Stream reader: aliasing, reassembly and copy cost                    *)
(* ------------------------------------------------------------------ *)

(* Feed [chunks] in order, draining after every [drain_every]-th one and
   after the last; the frames (codec, sender, body) and the first error,
   through either reader. *)
let read_all ~create ~feed ~next_view ~drain_every chunks =
  let r = create () in
  let got = ref [] and err = ref None in
  let last = List.length chunks - 1 in
  List.iteri
    (fun i c ->
      feed r c ~pos:0 ~len:(String.length c);
      let rec go () =
        match next_view r with
        | Ok (Some v) ->
          got := (v.W.v_codec_id, v.W.v_sender, W.view_body v) :: !got;
          go ()
        | Ok None -> ()
        | Error e -> if !err = None then err := Some (W.error_to_string e)
      in
      if (i + 1) mod drain_every = 0 || i = last then go ())
    chunks;
  (List.rev !got, !err)

let split_at_sizes stream sizes =
  let rec go pos sizes acc =
    if pos >= String.length stream then List.rev acc
    else
      let k, rest = match sizes with k :: rest -> (k, rest @ [ k ]) | [] -> (1, []) in
      let len = min k (String.length stream - pos) in
      go (pos + len) rest (String.sub stream pos len :: acc)
  in
  go 0 sizes []

(* The chunk-aliasing reader and the Buffer-snapshot reader it replaced
   yield the same frames and the same error on any split of any stream,
   corrupted or not, whether drained after every chunk or not. *)
let prop_reader_matches_reference =
  Test.make ~count:300 ~name:"Reader matches the snapshot reader on any split"
    Gen.(
      quad
        (list_size (int_range 1 10) (pair gen_byz_weak gen_sender))
        (list_size (int_range 1 6) (int_range 1 80))
        (opt (pair nat (int_range 1 255)))
        (int_range 1 3))
    (fun (msgs, sizes, flip, drain_every) ->
      let stream =
        String.concat "" (List.map (fun (m, sender) -> W.encode Wf.byz_weak ~sender m) msgs)
      in
      let stream =
        match flip with
        | None -> stream
        | Some (at, x) ->
          let at = at mod String.length stream in
          patch stream at (Char.chr (Char.code stream.[at] lxor x))
      in
      let chunks = split_at_sizes stream sizes in
      let got =
        read_all ~create:(fun () -> W.Reader.create ()) ~feed:W.Reader.feed
          ~next_view:W.Reader.next_view ~drain_every chunks
      in
      let want =
        read_all ~create:(fun () -> Reader_ref.create ()) ~feed:Reader_ref.feed
          ~next_view:Reader_ref.next_view ~drain_every chunks
      in
      got = want)

let byz_frame ~sender m = W.encode Wf.byz_strong ~sender m

let test_reader_view_survives_feeds () =
  let f1 = byz_frame ~sender:1 (Byz_strong.Committed Value.V1) in
  let f2 = byz_frame ~sender:2 (Byz_strong.Committed Value.V0) in
  let r = W.Reader.create () in
  (* f1 whole plus the first half of f2 in one chunk *)
  let half = String.length f2 / 2 in
  W.Reader.feed r (f1 ^ String.sub f2 0 half) ~pos:0 ~len:(String.length f1 + half);
  let v1 =
    match W.Reader.next_view r with
    | Ok (Some v) -> v
    | _ -> Alcotest.fail "first frame not extracted"
  in
  let body1 = W.view_body v1 in
  let want1 = String.sub f1 W.header_bytes (String.length f1 - W.header_bytes) in
  Alcotest.(check string) "first view's body" want1 body1;
  (match W.Reader.next_view r with Ok None -> () | _ -> Alcotest.fail "partial frame extracted");
  W.Reader.feed r f2 ~pos:half ~len:(String.length f2 - half);
  (match W.Reader.next_view r with
  | Ok (Some v) -> Alcotest.(check int) "second frame's sender" 2 v.W.v_sender
  | _ -> Alcotest.fail "second frame not reassembled");
  for i = 0 to 50 do
    let v = if i mod 2 = 0 then Value.V0 else Value.V1 in
    let f = byz_frame ~sender:3 (Byz_strong.Committed v) in
    W.Reader.feed r f ~pos:0 ~len:(String.length f);
    ignore (W.Reader.next_view r : (W.view option, W.error) result)
  done;
  Alcotest.(check string) "first view's body unchanged" body1 (W.view_body v1);
  Alcotest.(check int) "first view's sender" 1 v1.W.v_sender

let test_reader_byte_at_a_time () =
  let msgs = [ Byz_strong.Committed Value.V1; Byz_strong.Committed Value.V0 ] in
  let stream = String.concat "" (List.mapi (fun i m -> byz_frame ~sender:i m) msgs) in
  let r = W.Reader.create () in
  let senders = ref [] in
  String.iteri
    (fun i _ ->
      W.Reader.feed r stream ~pos:i ~len:1;
      match W.Reader.next r with
      | Ok (Some f) -> senders := f.W.sender :: !senders
      | Ok None -> ()
      | Error e -> Alcotest.failf "reader error: %s" (W.error_to_string e))
    stream;
  Alcotest.(check (list int)) "both frames, in order" [ 0; 1 ] (List.rev !senders);
  Alcotest.(check int) "nothing left buffered" 0 (W.Reader.buffered r)

let test_reader_large_frame () =
  let body = String.init (256 * 1024) (fun i -> Char.chr ((i * 7919) land 0xFF)) in
  let frame = W.encode_raw ~codec_id:Wf.byz_strong.W.id ~sender:5 body in
  let r = W.Reader.create () in
  let read = 64 * 1024 in
  let got = ref None in
  let pos = ref 0 in
  while !pos < String.length frame do
    let len = min read (String.length frame - !pos) in
    W.Reader.feed r (String.sub frame !pos len) ~pos:0 ~len;
    pos := !pos + len;
    match W.Reader.next_view r with
    | Ok (Some v) -> got := Some v
    | Ok None -> ()
    | Error e -> Alcotest.failf "reader error: %s" (W.error_to_string e)
  done;
  match !got with
  | None -> Alcotest.fail "256 KiB frame not reassembled"
  | Some v ->
    Alcotest.(check int) "sender" 5 v.W.v_sender;
    Alcotest.(check bool) "body intact" true (String.equal body (W.view_body v));
    Alcotest.(check int) "nothing left buffered" 0 (W.Reader.buffered r)

(* Words allocated so far, on both heaps: a large copy goes straight to
   the major heap, which [Gc.minor_words] does not see.  ([Gc.allocated_bytes]
   credits minor words only as minor collections complete, so it is not
   exact over a short interval.) *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Words allocated while feeding [chunk] to a reader that already
   consumed [consumed], and draining it. *)
let words_to_feed ~create ~feed ~next_view ~consumed chunk =
  let r = create () in
  let drain () =
    let rec go () =
      match next_view r with
      | Ok (Some _) -> go ()
      | Ok None -> ()
      | Error e -> Alcotest.failf "reader error: %s" (W.error_to_string e)
    in
    go ()
  in
  if String.length consumed > 0 then begin
    feed r consumed ~pos:0 ~len:(String.length consumed);
    drain ()
  end;
  let w0 = allocated_words () in
  feed r chunk ~pos:0 ~len:(String.length chunk);
  drain ();
  allocated_words () -. w0

let copy_bound_frames = 4

let copy_bound_chunk () =
  String.concat ""
    (List.init copy_bound_frames (fun i -> byz_frame ~sender:i (Byz_strong.Committed Value.V1)))

(* Feeding k bytes of whole frames may cost a few words per frame (the
   view and its result boxes), never a copy of what came before: two words
   per fed byte, whatever was consumed first. *)
let copy_bound chunk = 2. *. float_of_int (String.length chunk)

let consumed_prefix frames =
  String.concat ""
    (List.init frames (fun i -> byz_frame ~sender:(i mod 4) (Byz_strong.Committed Value.V0)))

let test_reader_copy_bound () =
  let chunk = copy_bound_chunk () in
  List.iter
    (fun frames ->
      let words =
        words_to_feed ~create:(fun () -> W.Reader.create ()) ~feed:W.Reader.feed
          ~next_view:W.Reader.next_view ~consumed:(consumed_prefix frames) chunk
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d frames consumed first: %.0f words for %d bytes (bound %.0f)" frames
           words (String.length chunk) (copy_bound chunk))
        true
        (words <= copy_bound chunk))
    [ 0; 10; 150; 1000 ]

(* The fixture: the snapshot reader copies its consumed prefix on every
   feed, which the bound must catch. *)
let test_reader_copy_bound_bites () =
  let chunk = copy_bound_chunk () in
  let words =
    words_to_feed ~create:(fun () -> Reader_ref.create ()) ~feed:Reader_ref.feed
      ~next_view:Reader_ref.next_view ~consumed:(consumed_prefix 150) chunk
  in
  Alcotest.(check bool)
    (Printf.sprintf "snapshot reader: %.0f words for %d bytes breaks bound %.0f" words
       (String.length chunk) (copy_bound chunk))
    true
    (words > copy_bound chunk)

let () =
  Alcotest.run "wire"
    [ ("roundtrip", List.map QCheck_alcotest.to_alcotest roundtrips);
      ( "adversarial",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_bytes_never_raise; prop_single_byte_flip; prop_truncation ]
        @ [ Alcotest.test_case "flipped CRC" `Quick test_flipped_crc;
            Alcotest.test_case "future version" `Quick test_future_version;
            Alcotest.test_case "bad magic" `Quick test_bad_magic;
            Alcotest.test_case "wrong codec id" `Quick test_wrong_codec;
            Alcotest.test_case "oversized length" `Quick test_oversized;
            Alcotest.test_case "varint overflow (string len)" `Quick test_varint_overflow_string_len;
            Alcotest.test_case "varint overflow (list count)" `Quick test_varint_overflow_list_count;
            Alcotest.test_case "varint max_int round-trip" `Quick test_varint_max_int;
            Alcotest.test_case "trailing body bytes" `Quick test_trailing_body_bytes ] );
      ("batch", batch_tests);
      ( "reader",
        List.map QCheck_alcotest.to_alcotest [ prop_reader_chunking ]
        @ [ Alcotest.test_case "poisoned reader stays poisoned" `Quick test_reader_poisoned;
            Alcotest.test_case "codec ids distinct" `Quick test_codec_ids_distinct ] );
      ( "crc",
        [ Alcotest.test_case "known answers" `Quick test_crc_known_answers;
          QCheck_alcotest.to_alcotest prop_crc_matches_reference ] );
      ( "stream",
        [ QCheck_alcotest.to_alcotest prop_reader_matches_reference;
          Alcotest.test_case "view survives later feeds" `Quick test_reader_view_survives_feeds;
          Alcotest.test_case "frame fed a byte at a time" `Quick test_reader_byte_at_a_time;
          Alcotest.test_case "256 KiB frame over 64 KiB reads" `Quick test_reader_large_frame;
          Alcotest.test_case "feed cost is O(bytes fed)" `Quick test_reader_copy_bound;
          Alcotest.test_case "snapshot reader breaks the copy bound" `Quick
            test_reader_copy_bound_bites ] ) ]
