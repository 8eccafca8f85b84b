(* The 64-bit state lives unboxed in 8 bytes: a mutable [int64] field would
   box every new state, and with [mix64] inlined a draw allocates only its
   boxed result, if any. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let int64 t = next t

let split t = of_state (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub (Int64.sub Int64.max_int bound64) Int64.one in
  let r = ref (Int64.logand (next t) Int64.max_int) in
  while Int64.sub !r (Int64.rem !r bound64) > limit do
    r := Int64.logand (next t) Int64.max_int
  done;
  Int64.to_int (Int64.rem !r bound64)

let float t bound =
  let r = Int64.shift_right_logical (next t) 11 in
  Int64.to_float r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
