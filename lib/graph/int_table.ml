(* Identity hash: keys are node ids or small packed pairs, so the low bits
   already spread them over a power-of-two bucket array. *)
include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (x : int) = x land max_int
end)
