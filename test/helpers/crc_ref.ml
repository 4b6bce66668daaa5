(* Reference model for [Bca_wire.Wire.crc32]: CRC-32 (IEEE 802.3,
   reflected polynomial 0xEDB88320, init and xorout 0xFFFFFFFF) computed
   one bit at a time, with no table.  The table-driven implementation must
   agree with it on every slice of every string. *)

let crc32 s ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)
