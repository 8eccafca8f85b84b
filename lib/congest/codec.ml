(* 16-bit wire-word codec for packed CONGEST frames.

   A frame is a sequence of logical words (63-bit OCaml ints), each
   encoded as a little-endian zigzag varint in 15-bit groups: every
   16-bit wire word carries 15 payload bits, with the high bit set
   when another group follows.  Small values — node ids, tags, hop
   counts — fit a single wire word below 2^14; a full-width int needs
   at most [max_wire_words] = 5.  The encoding is canonical (no
   redundant trailing groups), so the wire length is a deterministic
   function of the value and the engine and the reference simulator
   agree bit-for-bit on [measured_bits]. *)

let word_bits = 16
let max_wire_words = 5
let guard_words = 1

exception Width_exceeded of { budget : int; words : int }
exception Truncated_frame of { wire : int }
exception Corrupt_frame of { wire : int }

let () =
  Printexc.register_printer (function
    | Width_exceeded { budget; words } ->
      Some
        (Printf.sprintf "Codec.Width_exceeded(budget %d, words %d)" budget
           words)
    | Truncated_frame { wire } ->
      Some (Printf.sprintf "Codec.Truncated_frame(wire %d)" wire)
    | Corrupt_frame { wire } ->
      Some (Printf.sprintf "Codec.Corrupt_frame(wire %d)" wire)
    | _ -> None)

(* CRC-16/CCITT (poly 0x1021, init 0xFFFF), table-driven over bytes.  The
   polynomial has an even number of terms, hence the factor (x + 1): every
   odd-weight error is detected, and every burst confined to 16 bits —
   in particular any garbling of a single wire word — is detected too.
   The guard word is this CRC over the frame's data wire words, stored as
   one extra raw (non-varint) wire word after them. *)
let crc_init = 0xFFFF

let crc_table =
  let t = Array.make 256 0 in
  for b = 0 to 255 do
    let c = ref (b lsl 8) in
    for _ = 0 to 7 do
      c :=
        if !c land 0x8000 <> 0 then ((!c lsl 1) lxor 0x1021) land 0xFFFF
        else (!c lsl 1) land 0xFFFF
    done;
    t.(b) <- !c
  done;
  t

let crc_byte crc b =
  ((crc lsl 8) land 0xFF00) lxor crc_table.(((crc lsr 8) lxor b) land 0xFF)

(* one 16-bit wire word, fed in buffer (little-endian) byte order *)
let crc_word crc g = crc_byte (crc_byte crc (g land 0xFF)) (g lsr 8)

(* CRC of the [wire] wire words packed at [base]. *)
let crc_region buf ~base ~wire =
  let crc = ref crc_init in
  for i = 0 to wire - 1 do
    crc := crc_word !crc (Bytes.get_uint16_le buf (base + (2 * i)))
  done;
  !crc

let verify buf ~base ~wire =
  wire >= guard_words
  && base >= 0
  && base + (2 * wire) <= Bytes.length buf
  && Bytes.get_uint16_le buf (base + (2 * (wire - 1)))
     = crc_region buf ~base ~wire:(wire - 1)

(* Structural sanity of packed data wire words: every continuation run
   terminates within [max_wire_words] groups, the frame does not end
   mid-value, and it parses into exactly [words] logical words.  The
   corruption pass runs this on frames that survive the CRC check (a
   2^-16 collision): a frame failing it would make the decoder raise
   inside algorithm code, so it is dropped as detected corruption
   instead. *)
let well_formed buf ~base ~wire ~words =
  base >= 0 && wire >= 0
  && base + (2 * wire) <= Bytes.length buf
  &&
  let w = ref 0 and run = ref 0 and ok = ref true in
  for i = 0 to wire - 1 do
    let g = Bytes.get_uint16_le buf (base + (2 * i)) in
    if g land 0x8000 = 0 then begin
      incr w;
      run := 0
    end
    else begin
      incr run;
      if !run >= max_wire_words then ok := false
    end
  done;
  !ok && !run = 0 && !w = words

let zigzag v = (v lsl 1) lxor (v asr 62)
let unzigzag z = (z lsr 1) lxor (-(z land 1))

let wire_length v =
  let z = zigzag v in
  if z = 0 then 1
  else begin
    let n = ref 0 and z = ref z in
    while !z <> 0 do
      incr n;
      z := !z lsr 15
    done;
    !n
  end

let measure p = Array.fold_left (fun acc v -> acc + wire_length v) 0 p
let measured_bits p = word_bits * measure p

(* Raw (unchecked) frame encode/decode over a caller-sized region.
   [encode] returns the wire-word count; the caller guarantees
   capacity for [max_wire_words] wire words per logical word. *)

(* The group loops are top-level with every dependency passed as an
   argument: defined inside [put]/[get] they would close over the
   buffer and cost a closure allocation per word on the engine's
   zero-allocation emit path. *)
let rec put_groups buf base z wire =
  let g = z land 0x7FFF and rest = z lsr 15 in
  if rest = 0 then begin
    Bytes.set_uint16_le buf (base + (2 * wire)) g;
    wire + 1
  end
  else begin
    Bytes.set_uint16_le buf (base + (2 * wire)) (g lor 0x8000);
    put_groups buf base rest (wire + 1)
  end

(* [shift] is bounded by the canonical group count: a 63-bit zigzag value
   needs at most [max_wire_words] groups, so a continuation bit on the
   group at shift [15 * (max_wire_words - 1)] cannot come from any encoder
   of ours — only from corrupt bytes.  Without the check the shift would
   run past the int width, where [lsl] is unspecified: a silently wrong
   decode instead of a typed error. *)
let rec decode_groups buf base wire pos z shift =
  if !pos >= wire then raise (Truncated_frame { wire });
  let g = Bytes.get_uint16_le buf (base + (2 * !pos)) in
  incr pos;
  let z = z lor ((g land 0x7FFF) lsl shift) in
  if g land 0x8000 = 0 then z
  else if shift >= 15 * (max_wire_words - 1) then raise (Corrupt_frame { wire })
  else decode_groups buf base wire pos z (shift + 15)

let encode buf ~base p =
  let wire = ref 0 in
  for i = 0 to Array.length p - 1 do
    wire := put_groups buf base (zigzag p.(i)) !wire
  done;
  !wire

(* Single-word frame encode, the broadcast fast path: the engine encodes
   the frame once into a scratch region and fans the bytes out to every
   out-port. *)
let encode1 buf ~base v = put_groups buf base (zigzag v) 0

(* Guarded flavors: the data words followed by one raw CRC wire word.
   The returned count includes the guard, so delivered-bit accounting
   charges for it like any other wire word. *)
let encode_guarded buf ~base p =
  let wire = encode buf ~base p in
  Bytes.set_uint16_le buf (base + (2 * wire)) (crc_region buf ~base ~wire);
  wire + guard_words

let encode1_guarded buf ~base v =
  let wire = put_groups buf base (zigzag v) 0 in
  Bytes.set_uint16_le buf (base + (2 * wire)) (crc_region buf ~base ~wire);
  wire + guard_words

let decode buf ~base ~wire ~words =
  if base < 0 || base + (2 * wire) > Bytes.length buf then
    raise (Truncated_frame { wire });
  let out = Array.make words 0 in
  let pos = ref 0 in
  for i = 0 to words - 1 do
    out.(i) <- unzigzag (decode_groups buf base wire pos 0 0)
  done;
  out

(* Writers.  A writer is a reusable cursor over either a fixed arena
   region ([attach_writer], the engine's zero-allocation emit path) or
   its own growable scratch buffer ([scratch_writer], used by the
   recording emitter of the reference simulator and the async layer, and
   by boxed inbox views).  A writer given
   to [attach_writer] must not be reused with [scratch_writer]: the
   scratch mode assumes it owns [buf]. *)

type writer = {
  mutable buf : Bytes.t;
  mutable base : int;
  mutable wire : int; (* wire words written so far *)
  mutable words : int; (* logical words written so far *)
  mutable budget : int;
  mutable grow : bool;
  mutable guard : bool; (* guard word pending: [seal] will append it *)
  mutable crc : int; (* running CRC over the data wire words *)
}

let writer () =
  { buf = Bytes.create 64; base = 0; wire = 0; words = 0; budget = 0;
    grow = true; guard = false; crc = crc_init }

let attach_writer ~guard w buf ~base ~budget =
  w.buf <- buf;
  w.base <- base;
  w.wire <- 0;
  w.words <- 0;
  w.budget <- budget;
  w.grow <- false;
  w.guard <- guard;
  w.crc <- crc_init

let scratch_writer ?(guard = false) w ~budget =
  w.base <- 0;
  w.wire <- 0;
  w.words <- 0;
  w.budget <- budget;
  w.grow <- true;
  w.guard <- guard;
  w.crc <- crc_init

let put w v =
  let words = w.words + 1 in
  if words > w.budget then raise (Width_exceeded { budget = w.budget; words });
  if w.grow then begin
    let need = w.base + (2 * (w.wire + max_wire_words + guard_words)) in
    if Bytes.length w.buf < need then begin
      let cap = ref (max 64 (Bytes.length w.buf)) in
      while !cap < need do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit w.buf 0 nb 0 (Bytes.length w.buf);
      w.buf <- nb
    end
  end;
  let prev = w.wire in
  w.wire <- put_groups w.buf w.base (zigzag v) prev;
  (* Incremental guard: fold the wire words this put just produced into
     the running CRC — a read-back of at most [max_wire_words] u16s, no
     allocation, so the zero-alloc emit path keeps its claim. *)
  if w.guard then begin
    let crc = ref w.crc in
    for i = prev to w.wire - 1 do
      crc := crc_word !crc (Bytes.get_uint16_le w.buf (w.base + (2 * i)))
    done;
    w.crc <- !crc
  end;
  w.words <- words

(* Publish the pending guard word (if the writer was attached with
   [~guard:true]) and return the frame's total wire length.  Idempotent:
   the guard is appended once; later calls just return the length. *)
let seal w =
  if w.guard then begin
    w.guard <- false;
    Bytes.set_uint16_le w.buf (w.base + (2 * w.wire)) w.crc;
    w.wire <- w.wire + guard_words
  end;
  w.wire

let words w = w.words
let wire w = w.wire
let writer_bytes w = w.buf

(* Readers: a reusable cursor decoding one frame in place. *)

type reader = {
  mutable rbuf : Bytes.t;
  mutable rbase : int;
  mutable rwire : int;
  mutable rwords : int;
  mutable rpos : int; (* wire words consumed *)
  mutable rread : int; (* logical words consumed *)
}

let reader () =
  { rbuf = Bytes.empty; rbase = 0; rwire = 0; rwords = 0; rpos = 0; rread = 0 }

let attach_reader r buf ~base ~wire ~words =
  if base < 0 || wire < 0 || base + (2 * wire) > Bytes.length buf then
    raise (Truncated_frame { wire });
  r.rbuf <- buf;
  r.rbase <- base;
  r.rwire <- wire;
  r.rwords <- words;
  r.rpos <- 0;
  r.rread <- 0

(* Same hoisting rule as [put_groups]: the loop takes the reader so it
   can publish the final cursor without closing over anything. *)
let rec get_groups r buf base wire z shift pos =
  if pos >= wire then raise (Truncated_frame { wire });
  let g = Bytes.get_uint16_le buf (base + (2 * pos)) in
  let z = z lor ((g land 0x7FFF) lsl shift) in
  if g land 0x8000 = 0 then begin
    r.rpos <- pos + 1;
    z
  end
  else if shift >= 15 * (max_wire_words - 1) then raise (Corrupt_frame { wire })
  else get_groups r buf base wire z (shift + 15) (pos + 1)

let get r =
  if r.rread >= r.rwords then raise (Truncated_frame { wire = r.rwire });
  let z = get_groups r r.rbuf r.rbase r.rwire 0 0 r.rpos in
  r.rread <- r.rread + 1;
  unzigzag z

let remaining r = r.rwords - r.rread
