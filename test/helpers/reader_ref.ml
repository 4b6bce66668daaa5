(* Reference model for [Bca_wire.Wire.Reader]: the earlier stream reader,
   kept as a differential oracle and as a copy-cost fixture.  It appends
   every fed chunk to one [Buffer] and decodes from a [Buffer.contents]
   snapshot of the whole buffer, re-taken after each feed - including the
   consumed prefix, which is only compacted away once it passes 4 KiB.
   Frames and errors must match the chunk-aliasing reader; its copy cost
   must not. *)

module Wire = Bca_wire.Wire

type t = {
  max_body : int;
  buf : Buffer.t;
  mutable off : int;
  mutable snap : string;
  mutable snap_stale : bool;
  mutable poison : Wire.error option;
}

let create ?(max_body = Wire.default_max_body) () =
  { max_body; buf = Buffer.create 4096; off = 0; snap = ""; snap_stale = false; poison = None }

let feed t s ~pos ~len =
  Buffer.add_substring t.buf s pos len;
  if len > 0 then t.snap_stale <- true

let buffered t = Buffer.length t.buf - t.off

let snapshot t =
  if t.snap_stale then begin
    t.snap <- Buffer.contents t.buf;
    t.snap_stale <- false
  end;
  t.snap

let compact t =
  if t.off > 4096 && t.off * 2 > Buffer.length t.buf then begin
    let tail = Buffer.sub t.buf t.off (Buffer.length t.buf - t.off) in
    Buffer.clear t.buf;
    Buffer.add_string t.buf tail;
    t.off <- 0;
    t.snap <- tail;
    t.snap_stale <- false
  end

let next_view t =
  match t.poison with
  | Some e -> Error e
  | None -> (
    let s = snapshot t in
    match Wire.decode_frame_view ~max_body:t.max_body s ~pos:t.off with
    | Ok (view, consumed) ->
      t.off <- t.off + consumed;
      compact t;
      Ok (Some view)
    | Error (Wire.Truncated _) -> Ok None
    | Error e ->
      t.poison <- Some e;
      Error e)
