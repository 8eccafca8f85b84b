(* Wall-clock spans recorded from outside the library: every call into a
   layer's public function is wrapped in [span], which records its name,
   start, end, parent span and workload.  Spans stay in memory; the Chrome
   trace-event export happens once, when the benchmark ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* id of the enclosing span, -1 at the top *)
  start : float;
  mutable stop : float;
}

type t = {
  workload : int;  (* the Chrome track the spans are drawn on *)
  mutable next : int;
  mutable open_ : span list;
  mutable closed : span list;
}

let create ~workload = { workload; next = 0; open_ = []; closed = [] }

let span t name f =
  let s =
    {
      id = t.next;
      name;
      parent = (match t.open_ with p :: _ -> p.id | [] -> -1);
      start = Unix.gettimeofday ();
      stop = nan;
    }
  in
  t.next <- t.next + 1;
  t.open_ <- s :: t.open_;
  Fun.protect f ~finally:(fun () ->
      s.stop <- Unix.gettimeofday ();
      t.open_ <- List.tl t.open_;
      t.closed <- s :: t.closed)

let spans t = List.rev t.closed

(* Per span name: total self time (duration minus the part covered by
   child spans) and number of spans, in first-appearance order. *)
let self_times t =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          ((s.stop -. s.start)
          +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    t.closed;
  let acc = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)
      in
      match Hashtbl.find_opt acc s.name with
      | Some (secs, n) -> Hashtbl.replace acc s.name (secs +. self, n + 1)
      | None ->
        order := s.name :: !order;
        Hashtbl.replace acc s.name (self, 1))
    (spans t);
  List.rev_map (fun name -> (name, Hashtbl.find acc name)) !order

let self_time t name =
  match List.assoc_opt name (self_times t) with Some (s, _) -> s | None -> 0.

let calls t name =
  match List.assoc_opt name (self_times t) with Some (_, n) -> n | None -> 0

(* Total wall time covered by top-level spans. *)
let covered t =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. (s.stop -. s.start) else acc)
    0. t.closed

(* One Chrome "complete" event per line, timestamps in microseconds from
   [epoch]; [tid] is the workload, so each workload gets its own track. *)
let chrome_events ~epoch t =
  List.map
    (fun s ->
      Printf.sprintf
        "{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"workload\": %d}}"
        s.name t.workload
        ((s.start -. epoch) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent t.workload)
    (spans t)
