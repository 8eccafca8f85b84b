open Kdom_graph

type link = {
  drop : float;
  duplicate : float;
  slow : float;
  slow_factor : float;
}

let reliable_link = { drop = 0.; duplicate = 0.; slow = 0.; slow_factor = 1. }

type crash = { node : int; at : float; recover : float option }

type churn_event = Engine.Churn.event =
  | Crash of { node : int; at : int }
  | Edge_down of { src : int; dst : int; at : int }
  | Edge_up of { src : int; dst : int; at : int }
  | Edge_add of { src : int; dst : int; at : int }
  | Arrive of { node : int; at : int }
  | Depart of { node : int; at : int }

type spec = {
  link : link;
  overrides : ((int * int) * link) list;
  reorder : bool;
  crashes : crash list;
  churn : churn_event list;
  seed : int;
  corrupt : Engine.Corrupt.spec option;
}

exception Overlapping_crashes of int

let () =
  Printexc.register_printer (function
    | Overlapping_crashes v ->
      Some (Printf.sprintf "Faults.Overlapping_crashes(node %d)" v)
    | _ -> None)

let none =
  {
    link = reliable_link;
    overrides = [];
    reorder = false;
    crashes = [];
    churn = [];
    seed = 0;
    corrupt = None;
  }

let lossy ?(drop = 0.) ?(duplicate = 0.) ?(slow = 0.) ?(slow_factor = 10.)
    ?(reorder = true) ?(crashes = []) ?(churn = []) ?corrupt ~seed () =
  {
    link = { drop; duplicate; slow; slow_factor };
    overrides = [];
    reorder;
    crashes;
    churn;
    seed;
    corrupt;
  }

type counters = {
  mutable transmitted : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable crash_dropped : int;
  mutable corrupted : int;
}

type t = {
  spec : spec;
  links : link array;       (* per directed-edge slot *)
  last : float array;       (* per slot: latest scheduled delivery (FIFO clamp) *)
  crashes_of : crash list array;  (* per node, sorted by crash time *)
  rng : Rng.t;
  crng : Rng.t option;  (* dedicated corruption stream: drawing garble
                           verdicts never perturbs the loss/dup/delay
                           stream, so enabling corruption leaves every
                           other fault decision unchanged *)
  counters : counters;
  arrivals : float array;  (* the copies' delivery times of the last
                              [transmit], reused frame after frame *)
}

let check_prob what p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Faults: %s probability %g outside [0, 1]" what p)

let check_link l =
  check_prob "drop" l.drop;
  check_prob "duplicate" l.duplicate;
  check_prob "slow" l.slow;
  if not (Float.is_finite l.slow_factor && l.slow_factor >= 1.) then
    invalid_arg (Printf.sprintf "Faults: slow_factor %g must be finite and >= 1" l.slow_factor)

let compile eng spec =
  let n = Graph.n (Engine.graph eng) in
  check_link spec.link;
  let links = Array.make (max 1 (Engine.port_count eng)) spec.link in
  List.iter
    (fun ((src, dst), l) ->
      check_link l;
      if src < 0 || src >= n then
        invalid_arg (Printf.sprintf "Faults: override source %d not a node" src);
      let slot = Engine.find_port eng ~src ~dst in
      if slot < 0 then
        invalid_arg
          (Printf.sprintf "Faults: override for non-edge (%d, %d)" src dst);
      links.(slot) <- l)
    spec.overrides;
  let crashes_of = Array.make (max 1 n) [] in
  List.iter
    (fun c ->
      if c.node < 0 || c.node >= n then
        invalid_arg (Printf.sprintf "Faults: crash of non-node %d" c.node);
      (match c.recover with
      | Some r when r <= c.at ->
        invalid_arg
          (Printf.sprintf "Faults: node %d recovers at %g before crashing at %g"
             c.node r c.at)
      | _ -> ());
      crashes_of.(c.node) <- c :: crashes_of.(c.node))
    spec.crashes;
  Array.iteri
    (fun v cs ->
      let cs = List.sort (fun a b -> compare a.at b.at) cs in
      (* windows are half-open [at, recover); back-to-back windows
         (c2.at = recover1) are fine, overlap is a spec bug *)
      let rec check = function
        | c1 :: (c2 :: _ as rest) ->
          (match c1.recover with
          | None -> raise (Overlapping_crashes v)
          | Some r -> if c2.at < r then raise (Overlapping_crashes v));
          check rest
        | _ -> ()
      in
      check cs;
      crashes_of.(v) <- cs)
    crashes_of;
  let crng =
    match spec.corrupt with
    | Some cs ->
      Engine.Corrupt.arm cs;
      Some (Rng.create cs.Engine.Corrupt.cseed)
    | None -> None
  in
  {
    spec;
    links;
    last = Array.make (max 1 (Engine.port_count eng)) 0.;
    crashes_of;
    rng = Rng.create spec.seed;
    crng;
    counters =
      {
        transmitted = 0;
        dropped = 0;
        duplicated = 0;
        crash_dropped = 0;
        corrupted = 0;
      };
    arrivals = [| 0.; 0. |];
  }

let spec t = t.spec
let counters t = t.counters

(* Uniform on the half-open interval (0, max_delay], as documented:
   [Rng.float rng 1.0] is uniform in [0, 1), so [1 - u] is in (0, 1]. *)
let[@inline] sample_delay rng ~max_delay =
  if not (Float.is_finite max_delay && max_delay > 0.) then
    invalid_arg "Faults.sample_delay: max_delay must be positive and finite";
  max_delay *. (1.0 -. Rng.float rng 1.0)

(* Decision order is fixed (drop, then duplicate, then per copy its delay
   and slowdown) so that a run is a pure function of the seeds and the
   call sequence.  The delays come from [rng], the caller's stream; every
   other decision from the fault model's own. *)
let[@inline] transmit t ~now ~slot ~rng ~max_delay =
  let l = t.links.(slot) in
  let c = t.counters in
  c.transmitted <- c.transmitted + 1;
  if l.drop > 0. && Rng.float t.rng 1.0 < l.drop then begin
    c.dropped <- c.dropped + 1;
    0
  end
  else begin
    let copies =
      if l.duplicate > 0. && Rng.float t.rng 1.0 < l.duplicate then begin
        c.duplicated <- c.duplicated + 1;
        2
      end
      else 1
    in
    for i = 0 to copies - 1 do
      let d = sample_delay rng ~max_delay in
      let d =
        if l.slow > 0. && Rng.float t.rng 1.0 < l.slow then d *. l.slow_factor
        else d
      in
      let at = now +. d in
      let at = if t.spec.reorder then at else Float.max at t.last.(slot) in
      t.last.(slot) <- Float.max t.last.(slot) at;
      t.arrivals.(i) <- at
    done;
    copies
  end

let[@inline] arrival t i = t.arrivals.(i)

(* The window of a node's crash list that contains [time], if any
   (windows are half-open: [at <= time < recover]). *)
let rec window_at time = function
  | [] -> None
  | c :: rest ->
    if c.at <= time && match c.recover with None -> true | Some r -> time < r
    then Some c
    else window_at time rest

(* the common crash-free node is answered without a call *)
let[@inline] down t ~node ~time =
  match t.crashes_of.(node) with
  | [] -> false
  | cs -> Option.is_some (window_at time cs)

let rec next_up t ~node ~time =
  match window_at time t.crashes_of.(node) with
  | None -> Some time
  | Some { recover = None; _ } -> None
  | Some { recover = Some r; _ } -> next_up t ~node ~time:r

let note_crash_drop t = t.counters.crash_dropped <- t.counters.crash_dropped + 1

(* Per-copy corruption verdict for the asynchronous link layer: one flip
   trial per wire word of the physical frame plus a truncation trial, all
   scaled by the spec's intensity ramp at the sender's pulse.  The guard
   word makes detection certain up to the 2^-16 CRC collision, which this
   float-time model folds into the loss it already tolerates — a garbled
   copy behaves exactly like a lost one, except it is accounted as
   [corrupted], not [dropped]. *)
let garble t ~pulse ~wire =
  match (t.spec.corrupt, t.crng) with
  | Some cs, Some rng ->
    let inten = Engine.Corrupt.intensity cs ~round:pulse in
    let flip = cs.Engine.Corrupt.flip *. inten in
    let trunc = cs.Engine.Corrupt.truncate *. inten in
    let hit = ref false in
    if flip > 0. then
      for _ = 1 to wire do
        if Rng.float rng 1.0 < flip then hit := true
      done;
    if trunc > 0. && wire > 1 && Rng.float rng 1.0 < trunc then hit := true;
    if !hit then
      cs.Engine.Corrupt.tally.Engine.Corrupt.injected <-
        cs.Engine.Corrupt.tally.Engine.Corrupt.injected + 1;
    !hit
  | _ -> false

(* Record a garbled copy rejected by the receiver's guard check. *)
let note_corrupt t =
  t.counters.corrupted <- t.counters.corrupted + 1;
  match t.spec.corrupt with
  | Some cs ->
    cs.Engine.Corrupt.tally.Engine.Corrupt.detected <-
      cs.Engine.Corrupt.tally.Engine.Corrupt.detected + 1
  | None -> ()

(* ------------------------------------------------------------------ *)
(* churn: permanent topology changes on the synchronous round clock *)

let churn eng spec = Engine.Churn.compile eng spec.churn

type script = {
  script_events : churn_event list;
  script_checkpoints : int list;
  script_last : int;
}

let churn_script g ~seed ?(bursts = 4) ?(quiescence = 8) ~arrivals ~insertions
    ~cuts ~crashes ~departs () =
  let n = Graph.n g in
  let check_node what v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Faults.churn_script: %s %d not a node" what v)
  in
  List.iter (check_node "arrival") arrivals;
  List.iter (check_node "crash") crashes;
  List.iter (check_node "departure") departs;
  let check_edge what (a, b) =
    check_node what a;
    check_node what b;
    if Option.is_none (Graph.find_edge g a b) then
      invalid_arg
        (Printf.sprintf
           "Faults.churn_script: %s (%d, %d) not an edge of the union graph"
           what a b)
  in
  List.iter (check_edge "insertion") insertions;
  List.iter (check_edge "cut") cuts;
  if bursts < 1 then invalid_arg "Faults.churn_script: bursts must be >= 1";
  if quiescence < 1 then
    invalid_arg "Faults.churn_script: quiescence must be >= 1";
  (* one abstract op per requested change; the two directed events of an
     undirected edge op always fire at the same round *)
  let ops =
    List.map (fun v -> `Arrive v) arrivals
    @ List.map (fun e -> `Insert e) insertions
    @ List.map (fun e -> `Cut e) cuts
    @ List.map (fun v -> `Crash v) crashes
    @ List.map (fun v -> `Depart v) departs
  in
  let ops = Array.of_list ops in
  let rng = Rng.create seed in
  Rng.shuffle rng ops;
  let nops = Array.length ops in
  let used = min bursts (max 1 nops) in
  let period = 1 + quiescence in
  let evs = ref [] and checkpoints = ref [] in
  for b = 0 to used - 1 do
    let at = b * period in
    (* contiguous chunk of the shuffled pool: sizes differ by at most 1 *)
    let i0 = b * nops / used and i1 = (b + 1) * nops / used in
    for i = i0 to i1 - 1 do
      match ops.(i) with
      | `Arrive v -> evs := Arrive { node = v; at } :: !evs
      | `Insert (a, b') ->
        evs :=
          Edge_add { src = a; dst = b'; at }
          :: Edge_add { src = b'; dst = a; at }
          :: !evs
      | `Cut (a, b') ->
        evs :=
          Edge_down { src = a; dst = b'; at }
          :: Edge_down { src = b'; dst = a; at }
          :: !evs
      | `Crash v -> evs := Crash { node = v; at } :: !evs
      | `Depart v -> evs := Depart { node = v; at } :: !evs
    done;
    checkpoints := (at + quiescence) :: !checkpoints
  done;
  {
    script_events = List.rev !evs;
    script_checkpoints = List.rev !checkpoints;
    script_last = (used - 1) * period;
  }

let random_churn g ~seed ~crashes ~edge_cuts ~last =
  if crashes < 0 || edge_cuts < 0 then invalid_arg "Faults.random_churn: negative count";
  if last < 0 then invalid_arg "Faults.random_churn: negative last round";
  let n = Graph.n g and m = Graph.m g in
  if crashes > n then
    invalid_arg (Printf.sprintf "Faults.random_churn: %d crashes on %d nodes" crashes n);
  if edge_cuts > m then
    invalid_arg (Printf.sprintf "Faults.random_churn: %d cuts on %d edges" edge_cuts m);
  let rng = Rng.create seed in
  let nodes = Array.init n Fun.id in
  Rng.shuffle rng nodes;
  let eids = Array.init m Fun.id in
  Rng.shuffle rng eids;
  let round () = if last = 0 then 0 else Rng.int rng (last + 1) in
  let evs = ref [] in
  for i = 0 to crashes - 1 do
    evs := Crash { node = nodes.(i); at = round () } :: !evs
  done;
  for i = 0 to edge_cuts - 1 do
    let e = Graph.edge g eids.(i) in
    let at = round () in
    (* an undirected cut severs both directed slots at the same round *)
    evs :=
      Edge_down { src = e.Graph.u; dst = e.Graph.v; at }
      :: Edge_down { src = e.Graph.v; dst = e.Graph.u; at }
      :: !evs
  done;
  List.rev !evs
