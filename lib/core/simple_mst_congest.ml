open Kdom_graph
open Kdom_congest

type result = {
  fragments : Simple_mst.fragment list;
  stats : Engine.stats;
  phases : int;
}

(* Message tags *)
let tag_probe = 0 (* [tag; hop; root id] *)
let tag_echo = 1 (* [tag; deep?] *)
let tag_verdict = 2 (* [tag; active?; hop] *)
let tag_fragid = 3 (* [tag; fragment id] *)
let tag_cand = 4 (* [tag; weight (-1 = none)] *)
let tag_rootship = 5 (* [tag] *)
let tag_connect = 6 (* [tag; sender id] *)

let phases_for k = max 1 (Log_star.ceil_log2 (k + 1))
let phase_len i = (5 * (1 lsl i)) + 10

(* First round of phase [i]: the sum of [phase_len j] over [j < i]. *)
let phase_start i = (5 * ((1 lsl i) - 2)) + (10 * (i - 1))

let schedule_length ~k = phase_start (phases_for k + 1)

(* The phase that [round] falls in, searching from phase [i]. *)
let rec phase_of round i = if round < phase_start (i + 1) then i else phase_of round (i + 1)

(* The next round at which a node may have to act on an empty inbox, as an
   offset in a phase of cap [cap] after offset [r].  The §4.3 schedule is
   global and fixed, so the checkpoints are too: the verdict, fragment-id
   exchange, classification, rootship, connect and absorption slots, and
   the next phase start.  Everything between checkpoints (probe
   propagation, echo and candidate convergecasts, rootship walks) is
   message-driven. *)
let next_checkpoint ~cap r =
  if r < (2 * cap) + 2 then (2 * cap) + 2 (* verdict *)
  else if r < (3 * cap) + 4 then (3 * cap) + 4 (* fragment-id exchange *)
  else if r < (3 * cap) + 5 then (3 * cap) + 5 (* classification *)
  else if r < (4 * cap) + 6 then (4 * cap) + 6 (* rootship launch *)
  else if r < (5 * cap) + 7 then (5 * cap) + 7 (* connect *)
  else if r < (5 * cap) + 8 then (5 * cap) + 8 (* absorption-by-silence *)
  else (5 * cap) + 10 (* next phase start *)

(* Mutable per-node state, updated in place by [estep].  The two pending
   counters stand in for sets of children, exact because every child
   sends one echo and one candidate per phase; [same] replaces the list of
   fragment ids heard, one flag byte per neighbour in ascending order. *)
type state = {
  same : Bytes.t;              (* neighbour confirmed our fragment id this phase *)
  mutable wake : Engine.wake;  (* the next schedule checkpoint, rebuilt when it moves *)
  mutable tree : int list;     (* fragment tree neighbors, newest first *)
  mutable parent : int;        (* -1 at the fragment root *)
  mutable frag_id : int;       (* latest root identity heard (may be stale) *)
  (* per-phase scratch, reset at every phase start *)
  mutable active : bool;
  mutable probe_seen : bool;
  mutable echo_pending : int;
  mutable echo_deep : bool;
  mutable echo_sent : bool;
  mutable verdict_sent : bool;
  mutable classified : bool;
  mutable own_w : int;         (* weight of own best outgoing edge, max_int = none *)
  mutable own_u : int;         (* its other end, -1 = none *)
  mutable cand_pending : int;
  mutable cand_sent : bool;
  mutable best_w : int;        (* lightest candidate weight, max_int = none *)
  mutable best_owner : int;    (* -2 = own edge, else the child that sent it *)
  mutable rootship_here : bool;
  mutable connect_to : int;    (* neighbor the connect was sent to, -1 *)
  mutable halted : bool;
}

let rec count_children parent acc = function
  | [] -> acc
  | u :: rest -> count_children parent (if u <> parent then acc + 1 else acc) rest

let children st = count_children st.parent 0 st.tree

(* Frames to the children go out oldest tree edge first: the asynchronous
   executor draws each frame's delay and fault verdict in emission order,
   so the order is part of what a faulty run reproduces.  The §4.3
   schedule gives every send its own slot, so a step sends from at most
   one site. *)
let rec send_children em parent tag a b = function
  | [] -> ()
  | u :: rest ->
    send_children em parent tag a b rest;
    if u <> parent then Engine.Emit.frame3 em ~dst:u tag a b

let fresh_phase st =
  Bytes.fill st.same 0 (Bytes.length st.same) '\000';
  st.active <- false;
  st.probe_seen <- false;
  st.echo_pending <- 0;
  st.echo_deep <- false;
  st.echo_sent <- false;
  st.verdict_sent <- false;
  st.classified <- false;
  st.own_w <- max_int;
  st.own_u <- -1;
  st.cand_pending <- 0;
  st.cand_sent <- false;
  st.best_w <- max_int;
  st.best_owner <- -2;
  st.rootship_here <- false;
  st.connect_to <- -1

(* Index of neighbour [u] in the ascending adjacency: the engine only
   delivers frames from neighbours, so the search always succeeds. *)
let index_of (nbrs : (int * Graph.edge) array) u =
  let lo = ref 0 and hi = ref (Array.length nbrs - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst nbrs.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let algorithm g ~k : state Engine.ealgorithm =
  let total = schedule_length ~k in
  let einit _g v =
    {
      same = Bytes.make (Graph.degree g v) '\000';
      wake = Engine.OnMessage;
      tree = [];
      parent = -1;
      frag_id = v;
      active = false;
      probe_seen = false;
      echo_pending = 0;
      echo_deep = false;
      echo_sent = false;
      verdict_sent = false;
      classified = false;
      own_w = max_int;
      own_u = -1;
      cand_pending = 0;
      cand_sent = false;
      best_w = max_int;
      best_owner = -2;
      rootship_here = false;
      connect_to = -1;
      halted = false;
    }
  in
  let estep _g ~round ~node st inbox em =
    let i = phase_of round 1 in
    let r = round - phase_start i in
    let cap = 1 lsl i in
    let verdict_at = (2 * cap) + 2 in
    let fragid_at = (3 * cap) + 4 in
    let rootship_at = (4 * cap) + 6 in
    let connect_at = (5 * cap) + 7 in
    let nbrs = Graph.neighbors g node in
    (* phase start: reset scratch; the root fires the depth probe *)
    if r = 0 then begin
      fresh_phase st;
      if st.parent = -1 then begin
        send_children em st.parent tag_probe (cap - 1) node st.tree;
        st.echo_pending <- children st;
        st.frag_id <- node;
        st.probe_seen <- true
      end
    end;
    (* consume the inbox *)
    for ix = 0 to Engine.Inbox.length inbox - 1 do
      let u = Engine.Inbox.sender inbox ix in
      let rd = Engine.Inbox.read inbox ix in
      match Codec.get rd with
      | t when t = tag_probe ->
        let hop = Codec.get rd in
        let id = Codec.get rd in
        assert (u = st.parent);
        st.frag_id <- id;
        st.probe_seen <- true;
        let kids = children st in
        if kids = 0 || hop = 0 then begin
          (* a leaf is shallow; below the probe's reach the tree is too deep *)
          Engine.Emit.frame2 em ~dst:st.parent tag_echo (if kids = 0 then 0 else 1);
          st.echo_sent <- true
        end
        else begin
          send_children em st.parent tag_probe (hop - 1) id st.tree;
          st.echo_pending <- kids
        end
      | t when t = tag_echo ->
        st.echo_pending <- st.echo_pending - 1;
        if Codec.get rd = 1 then st.echo_deep <- true
      | t when t = tag_verdict ->
        let a = Codec.get rd in
        let hop = Codec.get rd in
        if hop > 0 then send_children em st.parent tag_verdict a (hop - 1) st.tree;
        st.active <- a = 1
      | t when t = tag_fragid ->
        if Codec.get rd = st.frag_id then Bytes.set st.same (index_of nbrs u) '\001'
      | t when t = tag_cand ->
        let w = Codec.get rd in
        if w >= 0 && w < st.best_w then begin
          st.best_w <- w;
          st.best_owner <- u
        end;
        st.cand_pending <- st.cand_pending - 1
      | t when t = tag_rootship ->
        (* walk on towards the winning edge, flipping orientation *)
        if st.best_owner = -2 then begin
          st.parent <- -1;
          st.rootship_here <- true
        end
        else begin
          Engine.Emit.frame1 em ~dst:st.best_owner tag_rootship;
          st.parent <- st.best_owner
        end
      | t when t = tag_connect ->
        (* u is a tree neighbour already only if the connect is mutual: u
           sent over its outgoing edge, so u was in another fragment *)
        if st.connect_to = u then begin
          (* mutual connect over the same edge: the higher id roots *)
          if Codec.get rd > node then st.parent <- u
        end
        else st.tree <- u :: st.tree
      | t -> invalid_arg (Printf.sprintf "Simple_mst_congest: unknown tag %d" t)
    done;
    (* echo aggregation towards the root; the root just waits for the
       verdict slot *)
    if st.probe_seen && st.echo_pending = 0 && (not st.echo_sent) && st.parent <> -1
       && r > 0 && r < verdict_at && children st > 0
    then begin
      Engine.Emit.frame2 em ~dst:st.parent tag_echo (if st.echo_deep then 1 else 0);
      st.echo_sent <- true
    end;
    (* the root announces the verdict *)
    if r = verdict_at && st.parent = -1 && not st.verdict_sent then begin
      st.active <- st.echo_pending = 0 && not st.echo_deep;
      send_children em (-1) tag_verdict (if st.active then 1 else 0) (cap - 1) st.tree;
      st.verdict_sent <- true
    end;
    (* active nodes exchange fragment identities over every edge *)
    if r = fragid_at && st.active then
      for ix = Array.length nbrs - 1 downto 0 do
        Engine.Emit.frame2 em ~dst:(fst nbrs.(ix)) tag_fragid st.frag_id
      done;
    (* classification: edges that did not confirm our fragment id are outgoing *)
    if r = fragid_at + 1 && st.active && not st.classified then begin
      for ix = 0 to Array.length nbrs - 1 do
        let u, (e : Graph.edge) = nbrs.(ix) in
        if Bytes.get st.same ix = '\000' && (st.own_u < 0 || e.w < st.own_w) then begin
          st.own_w <- e.w;
          st.own_u <- u
        end
      done;
      st.classified <- true;
      st.cand_pending <- children st;
      st.best_w <- st.own_w;
      st.best_owner <- -2
    end;
    (* minimum-weight-outgoing-edge convergecast *)
    if st.active && st.classified && st.cand_pending = 0 && (not st.cand_sent)
       && st.parent <> -1 && r >= fragid_at + 1 && r < rootship_at
    then begin
      Engine.Emit.frame2 em ~dst:st.parent tag_cand
        (if st.best_w = max_int then -1 else st.best_w);
      st.cand_sent <- true
    end;
    (* the root launches the rootship transfer *)
    if r = rootship_at && st.active && st.parent = -1 && st.best_w < max_int then
      if st.best_owner = -2 then st.rootship_here <- true
      else begin
        Engine.Emit.frame1 em ~dst:st.best_owner tag_rootship;
        st.parent <- st.best_owner
      end;
    (* the new root connects over the chosen edge *)
    if r = connect_at && st.rootship_here then begin
      if st.own_u < 0 then invalid_arg "Simple_mst_congest: rootship without a winning edge";
      Engine.Emit.frame2 em ~dst:st.own_u tag_connect node;
      st.connect_to <- st.own_u;
      st.tree <- st.own_u :: st.tree;
      st.parent <- -1
    end;
    (* silence on the connect edge means absorption into the other side *)
    if r = connect_at + 1 && st.connect_to >= 0 && st.parent = -1 then begin
      let mutual = ref false in
      for ix = 0 to Engine.Inbox.length inbox - 1 do
        if Engine.Inbox.sender inbox ix = st.connect_to then mutual := true
      done;
      (* a mutual connect was resolved while consuming the inbox *)
      if not !mutual then st.parent <- st.connect_to
    end;
    if round = total - 1 then st.halted <- true;
    let next = min (round - r + next_checkpoint ~cap r) (total - 1) in
    (match st.wake with Engine.At w when w = next -> () | _ -> st.wake <- Engine.At next);
    st
  in
  let ehalted st = st.halted in
  let ewake st = st.wake in
  { Engine.einit; estep; ehalted; ewake }

(* Word budget: the widest messages are [| tag_probe; hop; root id |] and
   [| tag_verdict; active?; hop |] — 3 words. *)
let max_words = 3

(* reconstruct the fragment forest from the final tree edges *)
let fragments_of_states g states =
  let n = Graph.n g in
  let uf = Union_find.create n in
  Array.iteri
    (fun v st -> List.iter (fun u -> ignore (Union_find.union uf v u)) st.tree)
    states;
  let groups = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    let r = Union_find.find uf v in
    Hashtbl.replace groups r (v :: Option.value ~default:[] (Hashtbl.find_opt groups r))
  done;
  Hashtbl.fold
    (fun _r members acc ->
        let roots = List.filter (fun v -> states.(v).parent = -1) members in
        let root =
          match roots with
          | [ r ] -> r
          | _ ->
            invalid_arg
              (Printf.sprintf "Simple_mst_congest: fragment with %d roots"
                 (List.length roots))
        in
        let tree_edges =
          List.concat_map
            (fun v ->
              List.filter_map
                (fun u ->
                  if v < u then
                    match Graph.find_edge g v u with
                    | Some e -> Some e
                    | None -> invalid_arg "Simple_mst_congest: tree edge not in graph"
                  else None)
                states.(v).tree)
            members
          |> List.sort_uniq (fun (a : Graph.edge) b -> compare a.id b.id)
        in
        let depth = Simple_mst.tree_depth root members tree_edges in
        ({ root; members; tree_edges; depth } : Simple_mst.fragment) :: acc)
      groups []

let run ?trace g ~k =
  if k < 1 then invalid_arg "Simple_mst_congest.run: k must be >= 1";
  if not (Graph.is_connected g) then
    invalid_arg "Simple_mst_congest.run: graph must be connected";
  if not (Graph.has_distinct_weights g) then
    invalid_arg "Simple_mst_congest.run: edge weights must be distinct";
  let phases = phases_for k in
  Trace.observe trace ~max_words "simple_mst" (fun sink ->
      let c0 = match trace with Some t -> Trace.clock t | None -> 0 in
      let states, stats = Runtime.run ~max_words ~sink g (algorithm g ~k) in
      (* The phase boundaries are a fixed global schedule ({!phase_start}); lay
         each phase down as a synthetic span, clamped to the rounds the
         execution actually used (it quiesces after the last real merge). *)
      Option.iter
        (fun t ->
          let stop_max = Trace.clock t in
          let start = ref c0 in
          for i = 1 to phases do
            Trace.add_span t
              ~name:(Printf.sprintf "simple_mst.phase[%d]" i)
              ~start_round:(min !start stop_max)
              ~stop_round:(min (!start + phase_len i) stop_max)
              ();
            start := !start + phase_len i
          done)
        trace;
      { fragments = fragments_of_states g states; stats; phases })
