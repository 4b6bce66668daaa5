module Value = Bca_util.Value

let version = 1

let header_bytes = 14

let default_max_body = 1 lsl 20

let max_sender = 0xFFFF

let magic0 = '\xBC'

let magic1 = '\xA1'

(* ---- CRC-32 (IEEE 802.3, reflected) -------------------------------- *)

(* Immediate ints, not [int32]s: the fold stays in registers and the
   table lookup never dereferences a box. *)
let crc_table =
  Array.init 256 (fun i ->
      let c = ref i in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

(* The caller has bounds-checked [pos, pos + len) against [b]. *)
let crc_bytes b ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := crc_table.((!c lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s ~pos ~len =
  if not (Bca_util.Bounds.slice_ok ~pos ~len (String.length s)) then
    invalid_arg "Wire.crc32: slice out of bounds";
  Int32.of_int (crc_bytes (Bytes.unsafe_of_string s) ~pos ~len)

(* ---- body primitives ----------------------------------------------- *)

module Put = struct
  let u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

  let u16 buf v =
    u8 buf (v lsr 8);
    u8 buf v

  let u32 buf v =
    u8 buf (v lsr 24);
    u8 buf (v lsr 16);
    u8 buf (v lsr 8);
    u8 buf v

  let i64 buf v =
    for shift = 7 downto 0 do
      u8 buf (Int64.to_int (Int64.shift_right_logical v (8 * shift)))
    done

  (* top-level recursion: a local [go] capturing [buf] would allocate a
     closure per call *)
  let rec varint_digits buf v =
    if v < 0x80 then u8 buf v
    else begin
      u8 buf (0x80 lor (v land 0x7F));
      varint_digits buf (v lsr 7)
    end

  let varint buf v =
    if v < 0 then invalid_arg "Wire.Put.varint: negative";
    varint_digits buf v

  let string buf s =
    varint buf (String.length s);
    Buffer.add_string buf s

  let value buf v = u8 buf (Value.to_int v)
end

module Get = struct
  type t = { src : string; mutable pos : int; limit : int }

  exception Malformed of string

  let fail msg = raise (Malformed msg)

  let create src ~pos ~len =
    if not (Bca_util.Bounds.slice_ok ~pos ~len (String.length src)) then
      invalid_arg "Wire.Get.create: slice out of bounds";
    { src; pos; limit = pos + len }

  let remaining t = t.limit - t.pos

  let u8 t =
    if t.pos >= t.limit then fail "truncated (u8)";
    let v = Char.code t.src.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let hi = u8 t in
    let lo = u8 t in
    (hi lsl 8) lor lo

  let u32 t =
    let a = u16 t in
    let b = u16 t in
    (a lsl 16) lor b

  let i64 t =
    let v = ref 0L in
    for _ = 0 to 7 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (u8 t))
    done;
    !v

  (* top-level recursion, like [Put.varint_digits]: no closure per call *)
  let rec varint_from t shift acc =
    if shift > 56 then fail "varint too long"
    else
      let b = u8 t in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      (* bit 62 of the payload is OCaml's int sign bit: a 9-byte encoding
         with 0x40 set in the last byte would wrap negative and sail
         through downstream [len > remaining]-style guards *)
      if acc < 0 then fail "varint overflows 63-bit int"
      else if b land 0x80 = 0 then acc
      else varint_from t (shift + 7) acc

  let varint t = varint_from t 0 0

  let string t =
    let len = varint t in
    if not (Bca_util.Bounds.fits ~max:(remaining t) len) then fail "string length exceeds body";
    let s = String.sub t.src t.pos len in
    t.pos <- t.pos + len;
    s

  let value t =
    match u8 t with
    | 0 -> Value.V0
    | 1 -> Value.V1
    | v -> fail (Printf.sprintf "invalid value byte %d" v)

  let sub t len =
    if not (Bca_util.Bounds.fits ~max:(remaining t) len) then fail "sub-cursor exceeds input";
    let s = { src = t.src; pos = t.pos; limit = t.pos + len } in
    t.pos <- t.pos + len;
    s

  let take t len =
    if not (Bca_util.Bounds.fits ~max:(remaining t) len) then fail "take exceeds input";
    let s = String.sub t.src t.pos len in
    t.pos <- t.pos + len;
    s

  let expect_end t =
    if t.pos <> t.limit then
      fail (Printf.sprintf "%d trailing body bytes" (t.limit - t.pos))
end

(* ---- codecs and frames --------------------------------------------- *)

type 'm codec = {
  id : int;
  name : string;
  enc : Buffer.t -> 'm -> unit;
  dec : Get.t -> 'm;
}

type frame = { codec_id : int; sender : int; body : string }

type view = {
  v_codec_id : int;
  v_sender : int;
  v_src : string;
  v_pos : int;  (** body offset in [v_src] *)
  v_len : int;  (** body length *)
}

type error =
  | Truncated of { need : int; have : int }
  | Bad_magic
  | Unsupported_version of int
  | Oversized of { len : int; limit : int }
  | Bad_crc of { expected : int32; actual : int32 }
  | Wrong_codec of { expected : int; got : int }
  | Malformed_body of string

let pp_error ppf = function
  | Truncated { need; have } -> Format.fprintf ppf "truncated frame: need %d bytes, have %d" need have
  | Bad_magic -> Format.pp_print_string ppf "bad magic"
  | Unsupported_version v -> Format.fprintf ppf "unsupported wire version %d" v
  | Oversized { len; limit } -> Format.fprintf ppf "oversized body: %d bytes (limit %d)" len limit
  | Bad_crc { expected; actual } ->
    Format.fprintf ppf "CRC mismatch: header says %08lx, body hashes to %08lx" expected actual
  | Wrong_codec { expected; got } ->
    Format.fprintf ppf "wrong codec id: expected %d, got %d" expected got
  | Malformed_body msg -> Format.fprintf ppf "malformed body: %s" msg

let error_to_string e = Format.asprintf "%a" pp_error e

(* A frame is built in one fresh [Bytes]: header, then the body copied in
   place, then the CRC of that body written into the header.  Encoding
   therefore allocates exactly the frame string. *)
let frame_header ~codec_id ~sender ~len =
  if not (Bca_util.Bounds.fits ~max:max_sender sender) then
    invalid_arg "Wire.encode: sender out of range";
  if not (Bca_util.Bounds.fits ~max:0xFF codec_id) then
    invalid_arg "Wire.encode: codec id out of range";
  let b = Bytes.create (header_bytes + len) in
  Bytes.set b 0 magic0;
  Bytes.set b 1 magic1;
  Bytes.set_uint8 b 2 version;
  Bytes.set_uint8 b 3 codec_id;
  Bytes.set_uint16_be b 4 sender;
  Bytes.set_uint16_be b 6 (len lsr 16);
  Bytes.set_uint16_be b 8 (len land 0xFFFF);
  b

let seal b ~len =
  let crc = crc_bytes b ~pos:header_bytes ~len in
  Bytes.set_uint16_be b 10 (crc lsr 16);
  Bytes.set_uint16_be b 12 (crc land 0xFFFF);
  Bytes.unsafe_to_string b

let encode_raw ~codec_id ~sender body =
  let len = String.length body in
  let b = frame_header ~codec_id ~sender ~len in
  Bytes.blit_string body 0 b header_bytes len;
  seal b ~len

let encode_raw_buffer ~codec_id ~sender body =
  let len = Buffer.length body in
  let b = frame_header ~codec_id ~sender ~len in
  Buffer.blit body 0 b header_bytes len;
  seal b ~len

let encode codec ~sender m =
  let body = Buffer.create 32 in
  codec.enc body m;
  encode_raw_buffer ~codec_id:codec.id ~sender body

let encode_buf codec ~sender ~scratch m =
  Buffer.clear scratch;
  codec.enc scratch m;
  encode_raw_buffer ~codec_id:codec.id ~sender scratch

(* Header parse shared by the one-shot decoder and the stream reader.
   [have] is how many bytes are available from [pos]; the caller guarantees
   [pos + have <= String.length s].  Returns a zero-copy view: the body
   stays in [s], only offsets travel.  [s] is an immutable string, so views
   remain valid whatever the caller does next. *)
let decode_view ~max_body s ~pos =
  let have = String.length s - pos in
  if not (Bca_util.Bounds.fits ~max:(String.length s) pos) then
    invalid_arg "Wire.decode_frame_view: pos out of bounds";
  if have < header_bytes then Error (Truncated { need = header_bytes; have })
  else if s.[pos] <> magic0 || s.[pos + 1] <> magic1 then Error Bad_magic
  else
    let v = String.get_uint8 s (pos + 2) in
    if v <> version then Error (Unsupported_version v)
    else
      let codec_id = String.get_uint8 s (pos + 3) in
      let sender = String.get_uint16_be s (pos + 4) in
      let len = (String.get_uint16_be s (pos + 6) lsl 16) lor String.get_uint16_be s (pos + 8) in
      if len > max_body then Error (Oversized { len; limit = max_body })
      else if have < header_bytes + len then
        Error (Truncated { need = header_bytes + len; have })
      else
        let expected =
          (String.get_uint16_be s (pos + 10) lsl 16) lor String.get_uint16_be s (pos + 12)
        in
        let actual = crc_bytes (Bytes.unsafe_of_string s) ~pos:(pos + header_bytes) ~len in
        if expected <> actual then
          Error (Bad_crc { expected = Int32.of_int expected; actual = Int32.of_int actual })
        else
          Ok
            ( { v_codec_id = codec_id; v_sender = sender; v_src = s; v_pos = pos + header_bytes; v_len = len },
              header_bytes + len )

let decode_frame_view ?(max_body = default_max_body) s ~pos = decode_view ~max_body s ~pos

(* Views built by [decode_frame_view] are always in range, but the
   type is public - re-validate the window before materialising it. *)
let view_body v =
  let pos = v.v_pos and len = v.v_len in
  if not (Bca_util.Bounds.slice_ok ~pos ~len (String.length v.v_src)) then
    invalid_arg "Wire.view_body: view window out of range";
  String.sub v.v_src pos len

let frame_of_view v = { codec_id = v.v_codec_id; sender = v.v_sender; body = view_body v }

let view_of_frame f =
  { v_codec_id = f.codec_id; v_sender = f.sender; v_src = f.body; v_pos = 0; v_len = String.length f.body }

let view_bytes v = header_bytes + v.v_len

let cursor_of_view v = Get.create v.v_src ~pos:v.v_pos ~len:v.v_len

let decode_frame ?max_body s ~pos =
  match decode_frame_view ?max_body s ~pos with
  | Error _ as e -> e
  | Ok (v, consumed) -> Ok (frame_of_view v, consumed)

let decode_body codec frame =
  if frame.codec_id <> codec.id then
    Error (Wrong_codec { expected = codec.id; got = frame.codec_id })
  else
    let cur = Get.create frame.body ~pos:0 ~len:(String.length frame.body) in
    match
      let m = codec.dec cur in
      Get.expect_end cur;
      m
    with
    | m -> Ok m
    | exception Get.Malformed msg -> Error (Malformed_body msg)

let decode_body_view codec v =
  if v.v_codec_id <> codec.id then Error (Wrong_codec { expected = codec.id; got = v.v_codec_id })
  else
    let cur = cursor_of_view v in
    match
      let m = codec.dec cur in
      Get.expect_end cur;
      m
    with
    | m -> Ok m
    | exception Get.Malformed msg -> Error (Malformed_body msg)

let decode codec s =
  match decode_frame s ~pos:0 with
  | Error e -> Error e
  | Ok (frame, consumed) ->
    if consumed <> String.length s then
      Error (Malformed_body (Printf.sprintf "%d trailing frame bytes" (String.length s - consumed)))
    else (
      match decode_body codec frame with
      | Ok m -> Ok (m, frame)
      | Error e -> Error e)

let frame_bytes f = header_bytes + String.length f.body

let words_of_bytes b = (b + 7) / 8

let frame_words f = words_of_bytes (frame_bytes f)

(* ---- stream reassembly --------------------------------------------- *)

module Reader = struct
  (* Unconsumed input is [src] from [off], or else a trailing partial
     frame stashed in [pending] - never both.  [src] is the last fed chunk
     itself whenever nothing was left over, so frames are viewed where the
     caller's string already lies; views stay valid because no [src] is
     ever mutated. *)
  type t = {
    max_body : int;
    mutable src : string;
    mutable off : int;
    pending : Buffer.t;
    (* [pending] must reach this length before the stashed frame can
       decode: the header size, or header + body once the header is in;
       0 joins it to whatever is fed next *)
    mutable need : int;
    mutable poison : error option;
  }

  let create ?(max_body = default_max_body) () =
    { max_body; src = ""; off = 0; pending = Buffer.create 256; need = 0; poison = None }

  let stash t ~need =
    Buffer.add_substring t.pending t.src t.off (String.length t.src - t.off);
    t.src <- "";
    t.off <- 0;
    t.need <- need

  let feed t s ~pos ~len =
    if not (Bca_util.Bounds.slice_ok ~pos ~len (String.length s)) then
      invalid_arg "Wire.Reader.feed: slice out of bounds";
    if len > 0 then begin
      (* fed again before draining: join the undrained rest to this chunk *)
      if t.off < String.length t.src then stash t ~need:0;
      let plen = Buffer.length t.pending in
      if plen = 0 then begin
        t.src <- (if pos = 0 && len = String.length s then s else String.sub s pos len);
        t.off <- 0
      end
      else if plen + len < t.need then Buffer.add_substring t.pending s pos len
      else begin
        (* the stashed partial frame completes: copy it in front of the
           chunk, once, and decode everything from there *)
        let b = Bytes.create (plen + len) in
        Buffer.blit t.pending 0 b 0 plen;
        Bytes.blit_string s pos b plen len;
        Buffer.reset t.pending;
        t.src <- Bytes.unsafe_to_string b;
        t.off <- 0
      end
    end

  let buffered t = String.length t.src - t.off + Buffer.length t.pending

  let next_view t =
    match t.poison with
    | Some e -> Error e
    | None when t.off = String.length t.src -> Ok None
    | None -> (
      match decode_view ~max_body:t.max_body t.src ~pos:t.off with
      | Ok (view, consumed) ->
        t.off <- t.off + consumed;
        Ok (Some view)
      | Error (Truncated { need; _ }) ->
        stash t ~need;
        Ok None
      | Error e ->
        t.poison <- Some e;
        Error e)

  let next t =
    match next_view t with
    | Error _ as e -> e
    | Ok None -> Ok None
    | Ok (Some v) -> Ok (Some (frame_of_view v))
end
