open Kdom_graph
open Kdom_congest

type result = {
  selected : Graph.edge list;
  upcast_stats : Engine.stats;
  broadcast_rounds : int;
  rounds : int;
  stalls : int;
  started_at : int array;
  root_received : int;
}

let tag_frag = 0 (* [tag; fragment id] *)
let tag_edge = 1 (* [tag; edge id; frag u; frag v; weight] *)
let tag_term = 2 (* [tag] *)

(* Hashtable-backed union-find over fragment ids: only touched fragments
   are materialized, so per-node memory stays proportional to the edges the
   node actually upcast.  A node builds its table on its first union; until
   then every fragment is its own root. *)
module Lazy_uf = struct
  type t = (int, int) Hashtbl.t option ref

  let create () : t = ref None

  let rec find_in t x =
    match Hashtbl.find_opt t x with
    | None -> x
    | Some p when p = x -> x
    | Some p ->
      let root = find_in t p in
      Hashtbl.replace t x root;
      root

  let find (t : t) x = match !t with None -> x | Some h -> find_in h x

  let union (t : t) a b =
    let h = match !t with
      | Some h -> h
      | None ->
        let h = Hashtbl.create 8 in
        t := Some h;
        h
    in
    let ra = find_in h a and rb = find_in h b in
    if ra = rb then false
    else begin
      Hashtbl.replace h ra rb;
      true
    end

  let same t a b = find t a = find t b
end

(* A known inter-fragment edge, keyed by its id in [q]; [sent] marks the
   ones this node has already upcast. *)
type entry = { fu : int; fv : int; w : int; mutable sent : bool }

(* Per-child progress, one bit each in the child's flag byte: the child
   sent its first message, the child terminated. *)
let f_heard = 1
let f_finished = 2

type node_state = {
  parent : int;
  children : int array;        (* BFS children, ascending *)
  child_flags : Bytes.t;       (* flag byte per child, indexed like [children] *)
  mutable heard : int;         (* children flagged heard *)
  mutable finished : int;      (* children flagged finished *)
  frag : int;
  q : (int, entry) Hashtbl.t;  (* edge id -> entry *)
  uf : Lazy_uf.t;
  mutable started : bool;
  mutable started_round : int;
  mutable done_ : bool;
}

(* Index of child [u] in the ascending [children]; [u] must be a child. *)
let child_index (children : int array) u =
  let lo = ref 0 and hi = ref (Array.length children - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if children.(mid) < u then lo := mid + 1 else hi := mid
  done;
  if !hi < 0 || children.(!lo) <> u then invalid_arg "Pipeline: message from a non-child";
  !lo

let flag_child st u f =
  let i = child_index st.children u in
  let fl = Bytes.get_uint8 st.child_flags i in
  if fl land f = 0 then begin
    Bytes.set_uint8 st.child_flags i (fl lor f);
    if f = f_heard then st.heard <- st.heard + 1 else st.finished <- st.finished + 1
  end

(* Word budget: the widest message is
   [| tag_edge; edge id; frag u; frag v; weight |] — 5 words, declared as 6
   to leave one word of slack for the paper's O(log n)-bit envelope. *)
let max_words = 6

let algorithm ?(eliminate_cycles = true) g ~(bfs : Bfs_tree.info) ~fragment_of =
  let stalls = ref 0 in
  let einit _g v =
    let children = Array.of_list bfs.children.(v) in
    Array.sort compare children;
    {
      parent = bfs.parent.(v);
      children;
      child_flags = Bytes.make (Array.length children) '\000';
      heard = 0;
      finished = 0;
      frag = fragment_of.(v);
      q = Hashtbl.create 8;
      uf = Lazy_uf.create ();
      started = false;
      started_round = -1;
      done_ = false;
    }
  in
  let estep _g ~round ~node st inbox em =
    if round = 0 then begin
      (* descending neighbor order: the asynchronous executor draws each
         frame's delay and fault verdict in emission order *)
      let nbrs = Graph.neighbors g node in
      for i = Array.length nbrs - 1 downto 0 do
        Engine.Emit.frame2 em ~dst:(fst nbrs.(i)) tag_frag st.frag
      done
    end
    else if round = 1 then
      (* learn neighbor fragments; incident inter-fragment edges seed Q *)
      for i = 0 to Engine.Inbox.length inbox - 1 do
        let u = Engine.Inbox.sender inbox i in
        let rd = Engine.Inbox.read inbox i in
        if Codec.get rd <> tag_frag then invalid_arg "Pipeline: unexpected tag at round 1";
        let nfrag = Codec.get rd in
        if nfrag <> st.frag then begin
          match Graph.find_edge g node u with
          | Some e ->
            Hashtbl.replace st.q e.id { fu = st.frag; fv = nfrag; w = e.w; sent = false }
          | None -> assert false
        end
      done
    else begin
      (* consume child messages *)
      for i = 0 to Engine.Inbox.length inbox - 1 do
        let u = Engine.Inbox.sender inbox i in
        let rd = Engine.Inbox.read inbox i in
        match Codec.get rd with
        | t when t = tag_edge ->
          flag_child st u f_heard;
          let id = Codec.get rd in
          if not (Hashtbl.mem st.q id) then begin
            let fu = Codec.get rd in
            let fv = Codec.get rd in
            let w = Codec.get rd in
            Hashtbl.replace st.q id { fu; fv; w; sent = false }
          end
        | t when t = tag_term ->
          flag_child st u f_heard;
          flag_child st u f_finished
        | _ -> invalid_arg "Pipeline: unexpected tag"
      done;
      let nchildren = Array.length st.children in
      if not st.started then st.started <- st.heard = nchildren;
      let all_children_done = st.finished = nchildren in
      if st.parent = -1 then begin
        (* the root only collects; it finishes when its children have *)
        if st.started && all_children_done && not st.done_ then st.done_ <- true
      end
      else if st.started && not st.done_ then begin
        (* RC = Q \ (U ∪ Cyc(U, Q)); upcast the lightest candidate *)
        let best_w = ref max_int and best_id = ref (-1) in
        Hashtbl.iter
          (fun id e ->
            if (not e.sent)
               && (e.w < !best_w || (e.w = !best_w && id < !best_id))
               && ((not eliminate_cycles) || not (Lazy_uf.same st.uf e.fu e.fv))
            then begin
              best_w := e.w;
              best_id := id
            end)
          st.q;
        let id = !best_id in
        if id >= 0 then begin
          let e = Hashtbl.find st.q id in
          if st.started_round = -1 then st.started_round <- round;
          e.sent <- true;
          if eliminate_cycles then ignore (Lazy_uf.union st.uf e.fu e.fv);
          let w = Engine.Emit.start em ~dst:st.parent in
          Codec.put w tag_edge;
          Codec.put w id;
          Codec.put w e.fu;
          Codec.put w e.fv;
          Codec.put w e.w;
          Engine.Emit.commit em
        end
        else if all_children_done then begin
          if st.started_round = -1 then st.started_round <- round;
          Engine.Emit.frame1 em ~dst:st.parent tag_term;
          st.done_ <- true
        end
        else
          (* Lemma 5.3 says this cannot happen: an active child implies a
             candidate.  Wait and record the violation. *)
          incr stalls
      end
    end;
    st
  in
  let ehalted st = st.done_ in
  (* A node that has started upcasting drains one queued candidate per
     round with no further input, and a leaf starts vacuously — both need
     stepping every round until done.  Everything else (fragment exchange,
     hearing children, termination) arrives as a message. *)
  let ewake st =
    if st.done_ then Engine.OnMessage
    else if st.started || Array.length st.children = 0 then Engine.Next
    else Engine.OnMessage
  in
  (({ Engine.einit; estep; ehalted; ewake } : node_state Engine.ealgorithm), stalls)

let selected_of_states g ~fragment_of ~root states =
  let nf = 1 + Array.fold_left max 0 fragment_of in
  let root_state = states.(root) in
  let edges_at_root =
    Hashtbl.fold (fun id e acc -> (e.fu, e.fv, e.w, id) :: acc) root_state.q []
    |> List.sort (fun (_, _, w1, _) (_, _, w2, _) -> compare w1 w2)
  in
  List.map (Graph.edge g) (Mst.mst_of_multigraph ~n:nf edges_at_root)

let run ?(eliminate_cycles = true) ?trace g ~(bfs : Bfs_tree.info) ~fragment_of =
  if not (Graph.has_distinct_weights g) then
    invalid_arg "Pipeline.run: edge weights must be distinct";
  let algo, stalls = algorithm ~eliminate_cycles g ~bfs ~fragment_of in
  let states, upcast_stats =
    Trace.observe trace ~max_words "pipeline.upcast" (fun sink ->
        Runtime.run ~max_words ~sink g algo)
  in
  let root_state = states.(bfs.root) in
  let selected = selected_of_states g ~fragment_of ~root:bfs.root states in
  let broadcast_rounds = max 0 (List.length selected - 1) + bfs.height + 1 in
  Trace.span_opt trace "pipeline.broadcast" (fun () ->
      Trace.charge_opt trace broadcast_rounds);
  {
    selected;
    upcast_stats;
    broadcast_rounds;
    rounds = upcast_stats.rounds + broadcast_rounds;
    stalls = !stalls;
    started_at = Array.map (fun st -> st.started_round) states;
    root_received = Hashtbl.length root_state.q;
  }

let round_bound ~diam ~fragments = (2 * diam) + fragments + 12
