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

let schedule_length ~k =
  let p = phases_for k in
  let rec go i acc = if i > p then acc else go (i + 1) (acc + phase_len i) in
  go 1 0

(* Locate the current phase and the offset inside it. *)
let locate round =
  let rec go i start =
    if round < start + phase_len i then (i, round - start) else go (i + 1) (start + phase_len i)
  in
  go 1 0

(* The next round at which a node may have to act on an empty inbox.  The
   §4.3 schedule is global and fixed, so the checkpoints are too: the
   phase-start reset (every node), the verdict / fragment-id exchange /
   classification / rootship / connect / absorption slots, and the final
   halting round.  Everything between checkpoints (probe propagation, echo
   and candidate convergecasts, rootship walks) is message-driven. *)
let next_checkpoint ~total round =
  let i, r = locate round in
  let cap = 1 lsl i in
  let offsets =
    [
      (2 * cap) + 2;  (* verdict *)
      (3 * cap) + 4;  (* fragment-id exchange *)
      (3 * cap) + 5;  (* classification *)
      (4 * cap) + 6;  (* rootship launch *)
      (5 * cap) + 7;  (* connect *)
      (5 * cap) + 8;  (* absorption-by-silence *)
      phase_len i;    (* next phase start *)
    ]
  in
  let next_off = List.find (fun o -> o > r) offsets in
  min (round - r + next_off) (total - 1)

type state = {
  wake_round : int;            (* next schedule checkpoint this node must attend *)
  tree : int list;             (* fragment tree neighbors *)
  parent : int;                (* -1 at the fragment root *)
  frag_id : int;               (* latest root identity heard (may be stale) *)
  (* per-phase scratch, reset at every phase start *)
  active : bool;
  probe_seen : bool;
  echo_pending : int list;
  echo_deep : bool;
  echo_sent : bool;
  verdict_sent : bool;
  fragids : (int * int) list;  (* (neighbor, fragment id) heard this phase *)
  classified : bool;
  own_min : (int * int) option;     (* weight, neighbor over own best outgoing edge *)
  cand_pending : int list;
  cand_sent : bool;
  best_w : int;                (* lightest candidate weight, max_int = none *)
  best_owner : int;            (* -2 = own edge, else the child that sent it *)
  rootship_here : bool;
  connect_to : int;            (* neighbor the connect was sent to, -1 *)
  halted : bool;
}

let children st = List.filter (fun u -> u <> st.parent) st.tree

let fresh_phase st =
  {
    st with
    active = false;
    probe_seen = false;
    echo_pending = [];
    echo_deep = false;
    echo_sent = false;
    verdict_sent = false;
    fragids = [];
    classified = false;
    own_min = None;
    cand_pending = [];
    cand_sent = false;
    best_w = max_int;
    best_owner = -2;
    rootship_here = false;
    connect_to = -1;
  }

(* Frames to a group of nodes go out in descending list order: the
   asynchronous executor draws each frame's delay and fault verdict in
   emission order, so the order is part of what a faulty run reproduces.
   The §4.3 schedule gives every send its own slot, so a step sends from
   at most one site. *)
let rec iter_rev f = function
  | [] -> ()
  | x :: rest ->
    iter_rev f rest;
    f x

let algorithm g ~k : state Engine.ealgorithm =
  let total = schedule_length ~k in
  let einit _g v =
    fresh_phase
      {
        wake_round = 0;
        tree = [];
        parent = -1;
        frag_id = v;
        active = false;
        probe_seen = false;
        echo_pending = [];
        echo_deep = false;
        echo_sent = false;
        verdict_sent = false;
        fragids = [];
        classified = false;
        own_min = None;
        cand_pending = [];
        cand_sent = false;
        best_w = max_int;
        best_owner = -2;
        rootship_here = false;
        connect_to = -1;
        halted = false;
      }
  in
  let estep _g ~round ~node st inbox em =
    let i, r = locate round in
    let cap = 1 lsl i in
    let verdict_at = (2 * cap) + 2 in
    let fragid_at = (3 * cap) + 4 in
    let rootship_at = (4 * cap) + 6 in
    let connect_at = (5 * cap) + 7 in
    (* phase start: reset scratch; the root fires the depth probe *)
    let st = if r = 0 then fresh_phase st else st in
    let st =
      if r = 0 && st.parent = -1 then begin
        let kids = children st in
        iter_rev (fun c -> Engine.Emit.frame3 em ~dst:c tag_probe (cap - 1) node) kids;
        { st with echo_pending = kids; frag_id = node; probe_seen = true }
      end
      else st
    in
    (* consume the inbox *)
    let st = ref st in
    for ix = 0 to Engine.Inbox.length inbox - 1 do
      let u = Engine.Inbox.sender inbox ix in
      let rd = Engine.Inbox.read inbox ix in
      let s = !st in
      st :=
        match Codec.get rd with
        | t when t = tag_probe ->
          let hop = Codec.get rd in
          let id = Codec.get rd in
          assert (u = s.parent);
          let s = { s with frag_id = id; probe_seen = true } in
          let kids = children s in
          if kids = [] then begin
            Engine.Emit.frame2 em ~dst:s.parent tag_echo 0;
            { s with echo_sent = true }
          end
          else if hop = 0 then begin
            (* the tree continues below the probe's reach: too deep *)
            Engine.Emit.frame2 em ~dst:s.parent tag_echo 1;
            { s with echo_sent = true }
          end
          else begin
            iter_rev (fun c -> Engine.Emit.frame3 em ~dst:c tag_probe (hop - 1) id) kids;
            { s with echo_pending = kids }
          end
        | t when t = tag_echo ->
          {
            s with
            echo_pending = List.filter (fun x -> x <> u) s.echo_pending;
            echo_deep = s.echo_deep || Codec.get rd = 1;
          }
        | t when t = tag_verdict ->
          let a = Codec.get rd in
          let hop = Codec.get rd in
          if hop > 0 then
            iter_rev
              (fun c -> Engine.Emit.frame3 em ~dst:c tag_verdict a (hop - 1))
              (children s);
          { s with active = a = 1 }
        | t when t = tag_fragid -> { s with fragids = (u, Codec.get rd) :: s.fragids }
        | t when t = tag_cand ->
          let w = Codec.get rd in
          let s =
            if w >= 0 && w < s.best_w then { s with best_w = w; best_owner = u } else s
          in
          { s with cand_pending = List.filter (fun x -> x <> u) s.cand_pending }
        | t when t = tag_rootship ->
          (* walk on towards the winning edge, flipping orientation *)
          if s.best_owner = -2 then { s with parent = -1; rootship_here = true }
          else begin
            Engine.Emit.frame1 em ~dst:s.best_owner tag_rootship;
            { s with parent = s.best_owner }
          end
        | t when t = tag_connect ->
          let s = if List.mem u s.tree then s else { s with tree = u :: s.tree } in
          if s.connect_to = u then
            (* mutual connect over the same edge: the higher id roots *)
            if Codec.get rd > node then { s with parent = u } else s
          else s
        | t -> invalid_arg (Printf.sprintf "Simple_mst_congest: unknown tag %d" t)
    done;
    let st = !st in
    (* echo aggregation towards the root *)
    let st =
      if st.probe_seen && st.echo_pending = [] && (not st.echo_sent)
         && children st <> [] && r > 0 && r < verdict_at
      then
        if st.parent = -1 then st (* the root just waits for the verdict slot *)
        else begin
          Engine.Emit.frame2 em ~dst:st.parent tag_echo (if st.echo_deep then 1 else 0);
          { st with echo_sent = true }
        end
      else st
    in
    (* the root announces the verdict *)
    let st =
      if r = verdict_at && st.parent = -1 && not st.verdict_sent then begin
        let active = st.echo_pending = [] && not st.echo_deep in
        iter_rev
          (fun c ->
            Engine.Emit.frame3 em ~dst:c tag_verdict (if active then 1 else 0) (cap - 1))
          (children st);
        { st with active; verdict_sent = true }
      end
      else st
    in
    (* active nodes exchange fragment identities over every edge *)
    let st =
      if r = fragid_at && st.active then begin
        let nbrs = Graph.neighbors g node in
        for ix = Array.length nbrs - 1 downto 0 do
          Engine.Emit.frame2 em ~dst:(fst nbrs.(ix)) tag_fragid st.frag_id
        done;
        st
      end
      else st
    in
    (* classification: edges that did not confirm our fragment id are outgoing *)
    let st =
      if r = fragid_at + 1 && st.active && not st.classified then begin
        let own_min = ref None in
        Array.iter
          (fun (u, (e : Graph.edge)) ->
            let same =
              match List.assoc_opt u st.fragids with
              | Some id -> id = st.frag_id
              | None -> false
            in
            if not same then
              match !own_min with
              | Some (w, _) when w <= e.w -> ()
              | _ -> own_min := Some (e.w, u))
          (Graph.neighbors g node);
        let best_w, best_owner =
          match !own_min with Some (w, _) -> (w, -2) | None -> (max_int, -2)
        in
        { st with classified = true; own_min = !own_min; cand_pending = children st;
          best_w; best_owner }
      end
      else st
    in
    (* minimum-weight-outgoing-edge convergecast *)
    let st =
      if st.active && st.classified && st.cand_pending = [] && (not st.cand_sent)
         && st.parent <> -1 && r >= fragid_at + 1 && r < rootship_at
      then begin
        Engine.Emit.frame2 em ~dst:st.parent tag_cand
          (if st.best_w = max_int then -1 else st.best_w);
        { st with cand_sent = true }
      end
      else st
    in
    (* the root launches the rootship transfer *)
    let st =
      if r = rootship_at && st.active && st.parent = -1 && st.best_w < max_int then
        if st.best_owner = -2 then { st with rootship_here = true }
        else begin
          Engine.Emit.frame1 em ~dst:st.best_owner tag_rootship;
          { st with parent = st.best_owner }
        end
      else st
    in
    (* the new root connects over the chosen edge *)
    let st =
      if r = connect_at && st.rootship_here then begin
        match st.own_min with
        | Some (_, u) ->
          Engine.Emit.frame2 em ~dst:u tag_connect node;
          { st with connect_to = u; tree = u :: st.tree; parent = -1 }
        | None -> invalid_arg "Simple_mst_congest: rootship without a winning edge"
      end
      else st
    in
    (* silence on the connect edge means absorption into the other side *)
    let st =
      if r = connect_at + 1 && st.connect_to >= 0 && st.parent = -1 then begin
        let mutual = ref false in
        for ix = 0 to Engine.Inbox.length inbox - 1 do
          if Engine.Inbox.sender inbox ix = st.connect_to then mutual := true
        done;
        if !mutual then st (* resolved while consuming the inbox *)
        else { st with parent = st.connect_to }
      end
      else st
    in
    let st = if round = total - 1 then { st with halted = true } else st in
    { st with wake_round = next_checkpoint ~total round }
  in
  let ehalted st = st.halted in
  let ewake st = Engine.At st.wake_round in
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
      (* The phase boundaries are a fixed global schedule ({!locate}); lay
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
