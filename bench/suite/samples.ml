(* Named metrics of one run: a unit plus every value measured for the
   metric, summarised as median, quartiles and range. *)

type t = { mutable order : string list; values : (string, string * float list) Hashtbl.t }

let create () = { order = []; values = Hashtbl.create 64 }

let add t name ~unit v =
  match Hashtbl.find_opt t.values name with
  | Some (u, vs) -> Hashtbl.replace t.values name (u, v :: vs)
  | None ->
    t.order <- name :: t.order;
    Hashtbl.replace t.values name (unit, [ v ])

let names t = List.rev t.order
let mem t name = Hashtbl.mem t.values name
let unit_of t name = fst (Hashtbl.find t.values name)

let sorted t name =
  let a = Array.of_list (snd (Hashtbl.find t.values name)) in
  Array.sort compare a;
  a

(* Python's [statistics.quantiles(data, n=4)] (the default exclusive
   method), so quartiles here read the same as in any tool that uses it. *)
let quartiles a =
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median_of xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let _, m, _ = quartiles a in
  m

let median t name = median_of (snd (Hashtbl.find t.values name))

let summary t name =
  let a = sorted t name in
  let q1, m, q3 = quartiles a in
  Json.Obj
    [
      ("median", Num m);
      ("q1", Num q1);
      ("q3", Num q3);
      ("min", Num a.(0));
      ("max", Num a.(Array.length a - 1));
      ("n", Num (float (Array.length a)));
      ("unit", Str (unit_of t name));
    ]
