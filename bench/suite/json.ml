(* The JSON subset the benchmark prints and reads back: the printer for
   its result lines, the reader for [kbench repeat], which compares the
   lines its child processes printed. *)

type t = Num of float | Str of string | Bool of bool | Obj of (string * t) list

(* Shortest decimal that reads back as the same float, so a measured time
   keeps all its digits. *)
let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let rec to_string = function
  | Num x -> if Float.is_finite x then num x else "null"
  | Str s -> Printf.sprintf "%S" s
  | Bool b -> string_of_bool b
  | Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (to_string v)) kvs)
    ^ "}"

exception Bad of string

let of_string s =
  let pos = ref 0 and len = String.length s in
  let rec skip () =
    if !pos < len && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t')
    then (incr pos; skip ())
  in
  let expect c =
    skip ();
    if !pos < len && s.[!pos] = c then incr pos
    else raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
  in
  let take p =
    let start = !pos in
    while !pos < len && p s.[!pos] do incr pos done;
    String.sub s start (!pos - start)
  in
  let rec value () =
    skip ();
    if !pos >= len then raise (Bad "unexpected end");
    match s.[!pos] with
    | '{' -> incr pos; Obj (fields [])
    | '"' -> Str (str ())
    | 't' | 'f' -> Bool (take (fun c -> c >= 'a' && c <= 'z') = "true")
    | 'n' -> ignore (take (fun c -> c >= 'a' && c <= 'z')); Num nan
    | _ -> Num (float_of_string (take (fun c -> String.contains "+-.eE0123456789" c)))
  and str () =
    expect '"';
    let v = take (fun c -> c <> '"') in
    expect '"';
    v
  and fields acc =
    skip ();
    if !pos < len && s.[!pos] = '}' then (incr pos; List.rev acc)
    else begin
      if acc <> [] then expect ',';
      let k = str () in
      expect ':';
      fields ((k, value ()) :: acc)
    end
  in
  value ()

let field k = function
  | Obj kvs -> (match List.assoc_opt k kvs with Some v -> v | None -> raise (Bad k))
  | _ -> raise (Bad k)

let to_num = function Num x -> x | _ -> raise (Bad "number")
let to_str = function Str s -> s | _ -> raise (Bad "string")
let to_obj = function Obj kvs -> kvs | _ -> raise (Bad "object")
