open Kdom_graph
open Kdom_congest

type info = {
  root : int;
  depth : int array;
  parent : int array;
  children : int list array;
  height : int;
  m_known : int array;
}

(* Message tags *)
let tag_explore = 0 (* [tag; depth of sender] *)
let tag_accept = 1 (* [tag] — sender adopted us as its parent *)
let tag_echo = 2 (* [tag; max depth in sender's subtree] *)
let tag_m = 3 (* [tag; M] — broadcast of the tree height *)

(* Mutable per-node state, updated in place by [estep].  Two counters
   stand in for sets, each exact because the protocol removes every
   member with exactly one frame: every non-parent neighbour sends this
   node one explore or one accept, and every child echoes once. *)
type state = {
  nbrs : int array;               (* neighbour ids, ascending *)
  mutable depth : int;            (* -1 until adopted *)
  mutable parent : int;
  mutable adopted_round : int;
  mutable unclassified : int;     (* non-parent neighbours not yet heard from *)
  mutable children : int list;    (* newest acceptance first *)
  mutable echoes_missing : int;   (* children whose echo is still awaited *)
  mutable subtree_max : int;      (* max depth seen among echoes and self *)
  mutable echo_sent : bool;
  mutable m : int;                (* -1 until known *)
  mutable halted : bool;
  mutable wake : Engine.wake;     (* the hint, rebuilt only when it changes *)
}

(* A group of frames goes out in descending neighbour order, the explores
   before the accept to the parent, and M to the children in acceptance
   order: the asynchronous executor draws each frame's delay and fault
   verdict in emission order, so the order is part of what a faulty run
   reproduces. *)
let explore_all st em ~skip depth =
  for i = Array.length st.nbrs - 1 downto 0 do
    let u = st.nbrs.(i) in
    if u <> skip then Engine.Emit.frame2 em ~dst:u tag_explore depth
  done

let rec send_m em m = function
  | [] -> ()
  | c :: rest ->
    send_m em m rest;
    Engine.Emit.frame2 em ~dst:c tag_m m

let algorithm g ~root =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Bfs_tree.run: empty graph";
  if root < 0 || root >= n then
    invalid_arg (Printf.sprintf "Bfs_tree.run: root %d out of range [0, %d)" root n);
  if not (Graph.is_connected g) then invalid_arg "Bfs_tree.run: graph must be connected";
  let einit _g v =
    {
      nbrs = Array.map fst (Graph.neighbors g v);
      depth = -1;
      parent = -1;
      adopted_round = -1;
      unclassified = 0;
      children = [];
      echoes_missing = 0;
      subtree_max = 0;
      echo_sent = false;
      m = -1;
      halted = false;
      wake = Engine.OnMessage;
    }
  in
  let adopt st ~round ~depth ~parent ~unclassified =
    st.depth <- depth;
    st.parent <- parent;
    st.adopted_round <- round;
    st.unclassified <- unclassified;
    st.subtree_max <- depth;
    (* the children-known echo check first becomes true two rounds on and
       can fire on an empty inbox (a leaf with no unclassified neighbours) *)
    st.wake <- Engine.At (round + 2)
  in
  let estep _g ~round ~node st inbox em =
    (* 1. Consume the inbox; before adoption only explores arrive, and the
       lowest-id explorer becomes the parent. *)
    let explorers = ref 0 and best_u = ref max_int and best_d = ref 0 in
    for i = 0 to Engine.Inbox.length inbox - 1 do
      let u = Engine.Inbox.sender inbox i in
      let rd = Engine.Inbox.read inbox i in
      match Codec.get rd with
      | t when t = tag_explore ->
        if st.depth = -1 then begin
          incr explorers;
          let d = Codec.get rd in
          if u < !best_u then begin
            best_u := u;
            best_d := d
          end
        end
        else (* u explored on its own: it is not our child *)
          st.unclassified <- st.unclassified - 1
      | t when t = tag_accept ->
        st.unclassified <- st.unclassified - 1;
        st.children <- u :: st.children;
        st.echoes_missing <- st.echoes_missing + 1
      | t when t = tag_echo ->
        st.echoes_missing <- st.echoes_missing - 1;
        st.subtree_max <- max st.subtree_max (Codec.get rd)
      | t when t = tag_m -> st.m <- Codec.get rd
      | t -> invalid_arg (Printf.sprintf "Bfs_tree: unknown tag %d" t)
    done;
    (* 2. Adoption.  Explorers other than the parent are adopted elsewhere,
       so they are classified already. *)
    if node = root && round = 0 then begin
      explore_all st em ~skip:(-1) 0;
      adopt st ~round ~depth:0 ~parent:(-1) ~unclassified:(Array.length st.nbrs)
    end
    else if !explorers > 0 then begin
      let depth = !best_d + 1 in
      explore_all st em ~skip:!best_u depth;
      Engine.Emit.frame1 em ~dst:!best_u tag_accept;
      adopt st ~round ~depth ~parent:!best_u
        ~unclassified:(Array.length st.nbrs - !explorers)
    end;
    (* 3. Echo once the children are known and have all reported.  A step
       sends from at most one of steps 2-4: adoption precedes the echo by
       two rounds, and M only arrives after this node's echo. *)
    if st.depth >= 0 && st.unclassified = 0 && round >= st.adopted_round + 2
       && st.echoes_missing = 0 && not st.echo_sent
    then begin
      st.echo_sent <- true;
      st.wake <- Engine.OnMessage;
      if node = root then begin
        st.m <- st.subtree_max;
        send_m em st.m st.children;
        st.halted <- true
      end
      else Engine.Emit.frame2 em ~dst:st.parent tag_echo st.subtree_max
    end;
    (* 4. Forward M downwards and halt. *)
    if st.m >= 0 && not st.halted then begin
      send_m em st.m st.children;
      st.halted <- true
    end;
    st
  in
  let ehalted st = st.halted in
  (* Everything after adoption is message-driven except the echo check
     (see [adopt]). *)
  let ewake st = st.wake in
  ({ einit; estep; ehalted; ewake } : state Engine.ealgorithm)

let info_of_states _g ~root states =
  {
    root;
    depth = Array.map (fun st -> st.depth) states;
    parent = Array.map (fun st -> st.parent) states;
    children = Array.map (fun st -> List.sort compare st.children) states;
    height = states.(root).m;
    m_known = Array.map (fun st -> st.m) states;
  }

(* Word budget: the widest message is [| tag_explore; depth |] /
   [| tag_echo; max depth |] / [| tag_m; M |] — 2 words. *)
let max_words = 2

let run ?trace g ~root =
  Trace.observe trace ~max_words "bfs_tree" (fun sink ->
      let states, stats = Runtime.run ~max_words ~sink g (algorithm g ~root) in
      (info_of_states g ~root states, stats))

let round_bound ~diam = (4 * diam) + 5

let of_parents g ~root ~parent ~depth =
  let n = Graph.n g in
  if Array.length parent <> n || Array.length depth <> n then
    invalid_arg "Bfs_tree.of_parents: array size mismatch";
  if parent.(root) <> -1 || depth.(root) <> 0 then
    invalid_arg "Bfs_tree.of_parents: root must have parent -1 and depth 0";
  let children = Array.make n [] in
  Array.iteri
    (fun v p ->
      if v <> root then begin
        if p < 0 || p >= n || depth.(v) <> depth.(p) + 1
           || Option.is_none (Graph.find_edge g v p) then
          invalid_arg "Bfs_tree.of_parents: inconsistent parent links";
        children.(p) <- v :: children.(p)
      end)
    parent;
  let height = Array.fold_left max 0 depth in
  {
    root;
    depth = Array.copy depth;
    parent = Array.copy parent;
    children = Array.map (fun c -> List.sort compare c) children;
    height;
    m_known = Array.make n height;
  }
