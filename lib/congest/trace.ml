type span = {
  id : int;
  name : string;
  parent : int;
  depth : int;
  track : int;
  start_round : int;
  mutable stop_round : int;
}

type span_stats = { s_rounds : int; s_counts : int array }

(* Growable buffer of round records, kept in ascending clock order. *)
type rounds_buf = { mutable rb : Engine.Sink.round_info array; mutable rlen : int }

let dummy_round = Engine.Sink.empty_round_info 0

type t = {
  mutable clock : int;
  mutable next_id : int;
  mutable stack : span list;      (* open spans, innermost first *)
  mutable all : span list;        (* every span, reversed creation order *)
  buf : rounds_buf;
  mutable msgs : int;
  mutable peak : int;
  edges : (int * int, int) Hashtbl.t;  (* directed edge -> peak width *)
  mutable budget : int;           (* -1 = unset *)
  mutable shards : int;           (* engine domain count; 1 = one shard *)
  mutable notes_rev : (string * int) list;
  mutable hists_rev : (string * (int * int) list) list;
}

let create () =
  {
    clock = 0;
    next_id = 0;
    stack = [];
    all = [];
    buf = { rb = Array.make 64 dummy_round; rlen = 0 };
    msgs = 0;
    peak = 0;
    edges = Hashtbl.create 64;
    budget = -1;
    shards = 1;
    notes_rev = [];
    hists_rev = [];
  }

let clock t = t.clock

let set_shards t d =
  if d < 1 then invalid_arg "Trace.set_shards: shards < 1";
  t.shards <- d

let shards t = t.shards

let push_round t (ri : Engine.Sink.round_info) =
  let b = t.buf in
  if b.rlen = Array.length b.rb then begin
    let a = Array.make (2 * b.rlen) dummy_round in
    Array.blit b.rb 0 a 0 b.rlen;
    b.rb <- a
  end;
  b.rb.(b.rlen) <- ri;
  b.rlen <- b.rlen + 1

let sink t =
  {
    Engine.Sink.on_message =
      (fun ~round:_ ~src ~dst ~words ->
        t.msgs <- t.msgs + 1;
        if words > t.peak then t.peak <- words;
        let key = (src, dst) in
        match Hashtbl.find_opt t.edges key with
        | Some p when p >= words -> ()
        | _ -> Hashtbl.replace t.edges key words);
    on_round =
      (fun ri ->
        (* re-clock the run-local round to the trace's absolute clock *)
        push_round t { ri with round = t.clock };
        t.clock <- t.clock + 1);
    on_finish = ignore;
  }

let set_budget t w = if w > t.budget then t.budget <- w

let open_span t ?(track = 0) name =
  let s =
    {
      id = t.next_id;
      name;
      parent = (match t.stack with [] -> -1 | p :: _ -> p.id);
      depth = List.length t.stack;
      track;
      start_round = t.clock;
      stop_round = -1;
    }
  in
  t.next_id <- t.next_id + 1;
  t.all <- s :: t.all;
  t.stack <- s :: t.stack;
  s

let close_span t s =
  s.stop_round <- t.clock;
  (match t.stack with
  | top :: rest when top == s -> t.stack <- rest
  | _ -> invalid_arg (Printf.sprintf "Trace: span %S closed out of order" s.name))

let span t ?track name f =
  let s = open_span t ?track name in
  Fun.protect ~finally:(fun () -> close_span t s) f

let span_opt trace ?track name f =
  match trace with None -> f () | Some t -> span t ?track name f

let observe trace ~max_words name f =
  match trace with
  | None -> f Engine.Sink.null
  | Some t ->
    set_budget t max_words;
    span t name (fun () -> f (sink t))

let charge t rounds =
  if rounds < 0 then invalid_arg "Trace.charge: negative rounds";
  t.clock <- t.clock + rounds

let charge_opt trace rounds =
  match trace with None -> () | Some t -> charge t rounds

let add_span t ?(track = 0) ~name ~start_round ~stop_round () =
  if stop_round < start_round then
    invalid_arg (Printf.sprintf "Trace.add_span: %S stops before it starts" name);
  let s =
    {
      id = t.next_id;
      name;
      parent = (match t.stack with [] -> -1 | p :: _ -> p.id);
      depth = List.length t.stack;
      track;
      start_round;
      stop_round;
    }
  in
  t.next_id <- t.next_id + 1;
  t.all <- s :: t.all

let note t name value =
  t.notes_rev <- (name, value) :: List.remove_assoc name t.notes_rev

let histogram t name buckets =
  List.iter
    (fun (_, c) ->
      if c < 0 then invalid_arg "Trace.histogram: negative bucket count")
    buckets;
  t.hists_rev <- (name, buckets) :: List.remove_assoc name t.hists_rev

let budget t = if t.budget < 0 then None else Some t.budget

(* ------------------------------------------------------------------ *)
(* inspection *)

let spans t =
  List.sort
    (fun a b ->
      match compare a.start_round b.start_round with 0 -> compare a.id b.id | c -> c)
    t.all

let rounds t = List.init t.buf.rlen (fun i -> t.buf.rb.(i))

(* First buffered record with clock >= c (records are clock-ascending). *)
let lower_bound t c =
  let b = t.buf in
  let lo = ref 0 and hi = ref b.rlen in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if b.rb.(mid).round < c then lo := mid + 1 else hi := mid
  done;
  !lo

(* Every counter summed over buffered records [i0, i1). *)
let sum_rounds t i0 i1 =
  let sums = Array.make Engine.Sink.n_counters 0 in
  for i = i0 to i1 - 1 do
    let c = t.buf.rb.(i).counts in
    for k = 0 to Engine.Sink.n_counters - 1 do
      sums.(k) <- sums.(k) + c.(k)
    done
  done;
  sums

let span_stats t s =
  let stop = if s.stop_round < 0 then t.clock else s.stop_round in
  {
    s_rounds = stop - s.start_round;
    s_counts = sum_rounds t (lower_bound t s.start_round) (lower_bound t stop);
  }

let totals t = sum_rounds t 0 t.buf.rlen

let messages t = t.msgs
let peak_words t = t.peak

let edge_peak_hist t =
  let h = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ p -> Hashtbl.replace h p (1 + Option.value ~default:0 (Hashtbl.find_opt h p)))
    t.edges;
  Hashtbl.fold (fun p c acc -> (p, c) :: acc) h [] |> List.sort compare

let notes t = List.rev t.notes_rev
let histograms t = List.rev t.hists_rev

(* ------------------------------------------------------------------ *)
(* export *)

let schema_version = "kdom.trace.v1.7"

let escape name =
  let b = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    name;
  Buffer.contents b

(* [,"key":sum] for each counter that span and summary records carry, in
   table order, with [after_bits] spliced in after the [bits] field. *)
let add_sums b ~after_bits sums =
  Array.iteri
    (fun c v ->
      if Engine.Sink.summed c then begin
        Printf.bprintf b ",\"%s\":%d" (Engine.Sink.key c) v;
        if c = Engine.Sink.bits then Buffer.add_string b after_bits
      end)
    sums

let to_jsonl t =
  let b = Buffer.create 4096 in
  let spans = spans t in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\":%S,\"type\":\"meta\",\"clock\":%d,\"spans\":%d,\"rounds\":%d,\
        \"budget\":%d,\"shards\":%d}\n"
       schema_version t.clock (List.length spans) t.buf.rlen t.budget t.shards);
  List.iter
    (fun s ->
      let st = span_stats t s in
      Printf.bprintf b
        "{\"type\":\"span\",\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"depth\":%d,\
         \"track\":%d,\"start\":%d,\"end\":%d,\"rounds\":%d"
        s.id s.parent (escape s.name) s.depth s.track s.start_round
        (if s.stop_round < 0 then t.clock else s.stop_round)
        st.s_rounds;
      add_sums b ~after_bits:"" st.s_counts;
      Buffer.add_string b "}\n")
    spans;
  for i = 0 to t.buf.rlen - 1 do
    Engine.Sink.round_line b t.buf.rb.(i)
  done;
  List.iter
    (fun (name, v) ->
      Buffer.add_string b
        (Printf.sprintf "{\"type\":\"note\",\"name\":\"%s\",\"value\":%d}\n"
           (escape name) v))
    (notes t);
  List.iter
    (fun (name, buckets) ->
      Buffer.add_string b
        (Printf.sprintf "{\"type\":\"hist\",\"name\":\"%s\",\"buckets\":[%s]}\n"
           (escape name)
           (String.concat ","
              (List.map (fun (v, c) -> Printf.sprintf "[%d,%d]" v c) buckets))))
    (histograms t);
  Printf.bprintf b
    "{\"type\":\"summary\",\"clock\":%d,\"rounds\":%d,\"spans\":%d,\
     \"messages\":%d"
    t.clock t.buf.rlen (List.length spans) t.msgs;
  add_sums b
    ~after_bits:(Printf.sprintf ",\"peak_words\":%d,\"budget\":%d" t.peak t.budget)
    (totals t);
  Buffer.add_string b "}\n";
  Buffer.contents b

let export_jsonl t oc =
  output_string oc (to_jsonl t);
  flush oc

let to_chrome t =
  let module S = Engine.Sink in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
     \"args\":{\"name\":\"kdom congest (1 us = 1 round)\"}}";
  List.iter
    (fun s ->
      let st = span_stats t s in
      let stop = if s.stop_round < 0 then t.clock else s.stop_round in
      Buffer.add_string b
        (Printf.sprintf
           ",\n{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\
            \"pid\":0,\"tid\":%d,\"args\":{\"rounds\":%d,\"%s\":%d,\
            \"%s\":%d}}"
           (escape s.name) s.start_round
           (max 1 (stop - s.start_round))
           s.track st.s_rounds (S.key S.delivered) st.s_counts.(S.delivered)
           (S.key S.words) st.s_counts.(S.words)))
    (spans t);
  for i = 0 to t.buf.rlen - 1 do
    let r = t.buf.rb.(i) in
    Buffer.add_string b
      (Printf.sprintf
         ",\n{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%d,\"pid\":0,\"tid\":0,\
          \"args\":{\"messages\":%d}}"
         (S.key S.delivered) r.round r.counts.(S.delivered))
  done;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let export_chrome t oc =
  output_string oc (to_chrome t);
  flush oc

(* ------------------------------------------------------------------ *)
(* validation: structural, dependency-free.  A field is checked by locating
   its key and verifying the value's first character has the right shape;
   combined with the golden-file tests this pins the schema without a JSON
   parser. *)

let has_int_field line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat and llen = String.length line in
  let rec find i =
    if i + plen > llen then None
    else if String.sub line i plen = pat then Some (i + plen)
    else find (i + 1)
  in
  match find 0 with
  | None -> Error (Printf.sprintf "missing field %S" key)
  | Some j ->
    if j < llen && (line.[j] = '-' || (line.[j] >= '0' && line.[j] <= '9')) then Ok ()
    else Error (Printf.sprintf "field %S is not an integer" key)

let has_array_field line key =
  let pat = Printf.sprintf "\"%s\":[" key in
  let plen = String.length pat and llen = String.length line in
  let rec find i =
    if i + plen > llen then false else String.sub line i plen = pat || find (i + 1)
  in
  if find 0 then Ok () else Error (Printf.sprintf "missing array field %S" key)

let has_string_field line key =
  let pat = Printf.sprintf "\"%s\":\"" key in
  let plen = String.length pat and llen = String.length line in
  let rec find i =
    if i + plen > llen then false else String.sub line i plen = pat || find (i + 1)
  in
  if find 0 then Ok () else Error (Printf.sprintf "missing string field %S" key)

let record_type line =
  match has_string_field line "type" with
  | Error _ -> None
  | Ok () ->
    let pat = "\"type\":\"" in
    let plen = String.length pat and llen = String.length line in
    let rec find i =
      if i + plen > llen then None
      else if String.sub line i plen = pat then Some (i + plen)
      else find (i + 1)
    in
    Option.bind (find 0) (fun j ->
        match String.index_from_opt line j '"' with
        | Some e -> Some (String.sub line j (e - j))
        | None -> None)

let counter_keys = List.init Engine.Sink.n_counters Engine.Sink.key
let summed_keys = List.filteri (fun c _ -> Engine.Sink.summed c) counter_keys

let int_fields = function
  | "meta" -> Some [ "clock"; "spans"; "rounds"; "budget"; "shards" ]
  | "span" ->
    Some
      ([ "id"; "parent"; "depth"; "track"; "start"; "end"; "rounds" ]
      @ summed_keys)
  | "round" -> Some ("round" :: counter_keys)
  | "note" -> Some [ "value" ]
  | "hist" -> Some []
  | "summary" ->
    Some
      ([ "clock"; "rounds"; "spans"; "messages"; "peak_words"; "budget" ]
      @ summed_keys)
  | _ -> None

let string_fields = function
  | "meta" -> [ "schema" ]
  | "span" | "note" | "hist" -> [ "name" ]
  | _ -> []

let array_fields = function "hist" -> [ "buckets" ] | _ -> []

let validate_line ?(first = false) line =
  let ( let* ) = Result.bind in
  let llen = String.length line in
  let* () =
    if llen >= 2 && line.[0] = '{' && line.[llen - 1] = '}' then Ok ()
    else Error "not a JSON object line"
  in
  let* ty =
    match record_type line with
    | Some ty -> Ok ty
    | None -> Error "missing \"type\" field"
  in
  let* ints =
    match int_fields ty with
    | Some fs -> Ok fs
    | None -> Error (Printf.sprintf "unknown record type %S" ty)
  in
  let* () =
    if first then
      if ty <> "meta" then Error "first line must be a \"meta\" record"
      else
        let pat = Printf.sprintf "\"schema\":%S" schema_version in
        let plen = String.length pat in
        let rec find i =
          if i + plen > llen then false
          else String.sub line i plen = pat || find (i + 1)
        in
        if find 0 then Ok ()
        else Error (Printf.sprintf "meta record does not declare schema %S" schema_version)
    else Ok ()
  in
  let* () = List.fold_left (fun acc k -> Result.bind acc (fun () -> has_int_field line k)) (Ok ()) ints in
  let* () =
    List.fold_left
      (fun acc k -> Result.bind acc (fun () -> has_string_field line k))
      (Ok ()) (string_fields ty)
  in
  List.fold_left
    (fun acc k -> Result.bind acc (fun () -> has_array_field line k))
    (Ok ()) (array_fields ty)

let validate_lines lines =
  let rec go i last_ty = function
    | [] ->
      if i = 0 then Error "empty trace"
      else if last_ty <> Some "summary" then Error "last line is not a \"summary\" record"
      else Ok i
    | line :: rest -> (
      match validate_line ~first:(i = 0) line with
      | Error e -> Error (Printf.sprintf "line %d: %s" (i + 1) e)
      | Ok () -> go (i + 1) (record_type line) rest)
  in
  go 0 None lines

let validate_channel ic =
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  validate_lines (read [])
