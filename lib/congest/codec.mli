(** Bit-level codec for packed CONGEST frames.

    Frames live in a flat [Bytes] arena, one fixed-stride region per
    mailbox slot.  A frame is a sequence of logical words (OCaml
    ints); each logical word is encoded as a little-endian zigzag
    varint in 15-bit groups, one group per 16-bit wire word, high bit
    = continuation.  The encoding is canonical, so wire lengths — and
    therefore the engine's measured bit counts — are deterministic
    functions of the payload values alone: the packed engine, the
    sharded engine and the list-based reference simulator agree
    bit-for-bit. *)

val word_bits : int
(** Size of one wire word in bits (16): the CONGEST "O(log n)-bit
    message" unit the engine accounts in. *)

val max_wire_words : int
(** Worst-case wire words per logical word (5): a 63-bit int needs
    [ceil 63/15] 15-bit groups.  Arena strides are
    [2 * max_wire_words * max_words] bytes (plus one guard word per
    frame when integrity guards are on). *)

val guard_words : int
(** Wire words appended per guarded frame (1): the CRC-16 guard. *)

exception Width_exceeded of { budget : int; words : int }
(** Raised by {!put} on the write of logical word [budget + 1].
    [words] is the attempted logical length ([budget + 1]).  The
    engine converts this into the legacy
    [Engine.Congestion_violation] message. *)

exception Truncated_frame of { wire : int }
(** Raised when decoding runs past the end of a frame: reading more
    logical words than were written, a continuation bit pointing
    past the recorded wire length, or a declared span that does not
    fit the backing buffer. *)

exception Corrupt_frame of { wire : int }
(** Raised when the bytes themselves are provably not the output of
    this codec: a varint whose continuation bits extend past the
    canonical [max_wire_words] group count.  Guard verification
    failures are reported by {!verify} returning [false]; the engine
    drops such frames and counts them rather than decoding. *)

val measure : int array -> int
(** Total wire words needed to encode a payload. *)

val measured_bits : int array -> int
(** [word_bits * measure p]: the honest bit cost of a frame. *)

val encode : Bytes.t -> base:int -> int array -> int
(** [encode buf ~base p] writes [p] packed at byte offset [base] and
    returns the wire-word count.  Unchecked: the caller guarantees
    room for [max_wire_words * Array.length p] wire words. *)

val encode1 : Bytes.t -> base:int -> int -> int
(** [encode1 buf ~base v] writes the single-word frame [|v|] and returns
    its wire-word count ([<= max_wire_words]).  The engine's broadcast
    path encodes a frame once with this and blits it to every out-port. *)

val decode : Bytes.t -> base:int -> wire:int -> words:int -> int array
(** [decode buf ~base ~wire ~words] reads back a frame of [words]
    logical words spanning [wire] wire words. *)

(** {1 Frame guards}

    A guarded frame carries one extra raw (non-varint) wire word: the
    CRC-16/CCITT (poly 0x1021, init 0xFFFF) of its data wire words,
    fed in little-endian buffer byte order.  The polynomial's (x + 1)
    factor detects every odd-weight error, and any burst confined to
    16 bits — in particular any garbling of a single wire word — is
    always detected; residual collision probability for wider
    even-weight patterns is 2^-16.  Decoders read only the data wire
    words, so the guard is invisible to inbox views; it is charged to
    delivered bits like any other wire word. *)

val verify : Bytes.t -> base:int -> wire:int -> bool
(** [verify buf ~base ~wire] checks a guarded frame of [wire] total
    wire words (data + guard): true iff the span fits the buffer and
    the last wire word equals the CRC of the preceding ones. *)

val well_formed : Bytes.t -> base:int -> wire:int -> words:int -> bool
(** [well_formed buf ~base ~wire ~words] checks that [wire] data wire
    words (guard excluded) are structurally decodable into exactly
    [words] logical words: no continuation run exceeds
    [max_wire_words] groups and the frame does not end mid-value.
    True for any encoder output; the engine's corruption pass uses it
    to keep a CRC-colliding garbled frame from reaching the decoder. *)

val encode_guarded : Bytes.t -> base:int -> int array -> int
(** Like {!encode}, then appends the guard word.  Returns the total
    wire count including the guard; the caller guarantees room for
    [max_wire_words * Array.length p + guard_words] wire words. *)

val encode1_guarded : Bytes.t -> base:int -> int -> int
(** Like {!encode1}, then appends the guard word. *)

(** {1 Writers}

    A writer is a reusable cursor: the engine repositions one writer
    per execution context onto successive arena slots, so steady-state
    emits allocate nothing. *)

type writer

val writer : unit -> writer
(** Fresh writer with its own small growable scratch buffer. *)

val attach_writer :
  guard:bool -> writer -> Bytes.t -> base:int -> budget:int -> unit
(** Reposition onto a fixed arena region at byte offset [base] with a
    logical-word [budget].  The region must have room for
    [max_wire_words * budget] wire words ([+ guard_words] when
    [~guard:true]).  With [~guard:true] the writer maintains a running
    CRC and {!seal} appends the guard word.  A writer that has been
    attached to foreign bytes must not be reused in scratch mode.
    [guard] is a plain labelled argument, not an optional one: the engine
    calls this once per emitted frame, and passing [~guard] to an
    optional parameter would box a [Some] on every call. *)

val scratch_writer : ?guard:bool -> writer -> budget:int -> unit
(** Reposition onto the writer's own buffer (grown on demand), with a
    logical-word [budget].  Used by {!Engine.recorder} and boxed inbox
    views. *)

val put : writer -> int -> unit
(** Append one logical word.  @raise Width_exceeded on word
    [budget + 1]. *)

val seal : writer -> int
(** Finish the frame: appends the pending guard word if the writer was
    repositioned with [~guard:true] (a no-op otherwise) and returns
    the frame's total wire length.  Idempotent. *)

val words : writer -> int
(** Logical words written since the last reposition. *)

val wire : writer -> int
(** Wire words written since the last reposition. *)

val writer_bytes : writer -> Bytes.t
(** The writer's current buffer (for decoding scratch frames). *)

(** {1 Readers} *)

type reader

val reader : unit -> reader

val attach_reader : reader -> Bytes.t -> base:int -> wire:int -> words:int -> unit
(** Reposition onto a packed frame of [words] logical words spanning
    [wire] wire words at byte offset [base]. *)

val get : reader -> int
(** Decode the next logical word.  @raise Truncated_frame past the
    end of the frame. *)

val remaining : reader -> int
(** Logical words not yet read. *)

