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

type state = {
  is_root : bool;
  neighbors : int list;
  depth : int;                  (* -1 until adopted *)
  parent : int;
  adopted_round : int;
  unclassified : int list;      (* non-parent neighbors not yet child/non-child *)
  children : int list;
  echoes_missing : int list;    (* children whose echo is still awaited *)
  subtree_max : int;            (* max depth seen among echoes and self *)
  echo_sent : bool;
  m : int;                      (* -1 until known *)
  halted : bool;
}

let algorithm g ~root =
  if not (Graph.is_connected g) then invalid_arg "Bfs_tree.run: graph must be connected";
  let einit _g v =
    {
      is_root = v = root;
      neighbors = Array.to_list (Array.map fst (Graph.neighbors g v));
      depth = -1;
      parent = -1;
      adopted_round = -1;
      unclassified = [];
      children = [];
      echoes_missing = [];
      subtree_max = 0;
      echo_sent = false;
      m = -1;
      halted = false;
    }
  in
  let remove x xs = List.filter (fun y -> y <> x) xs in
  (* A group of frames goes out in descending list order, and the explores
     before the accept to the parent: the asynchronous executor draws each
     frame's delay and fault verdict in emission order, so the order is
     part of what a faulty run (and its golden trace) reproduces. *)
  let rec iter_rev f = function
    | [] -> ()
    | x :: rest ->
      iter_rev f rest;
      f x
  in
  let estep _g ~round ~node:_ st inbox em =
    (* 1. Consume the inbox. *)
    let explore_senders = ref [] in
    let st = ref st in
    for i = 0 to Engine.Inbox.length inbox - 1 do
      let u = Engine.Inbox.sender inbox i in
      let rd = Engine.Inbox.read inbox i in
      let s = !st in
      st :=
        match Codec.get rd with
        | t when t = tag_explore ->
          if s.depth = -1 then begin
            explore_senders := (u, Codec.get rd) :: !explore_senders;
            s
          end
          else
            (* u explored on its own: it is not our child *)
            { s with unclassified = remove u s.unclassified }
        | t when t = tag_accept ->
          {
            s with
            unclassified = remove u s.unclassified;
            children = u :: s.children;
            echoes_missing = u :: s.echoes_missing;
          }
        | t when t = tag_echo ->
          {
            s with
            echoes_missing = remove u s.echoes_missing;
            subtree_max = max s.subtree_max (Codec.get rd);
          }
        | t when t = tag_m -> { s with m = Codec.get rd }
        | t -> invalid_arg (Printf.sprintf "Bfs_tree: unknown tag %d" t)
    done;
    let st = !st in
    (* 2. Adoption. *)
    let st =
      if st.is_root && round = 0 then begin
        iter_rev (fun u -> Engine.Emit.frame2 em ~dst:u tag_explore 0) st.neighbors;
        {
          st with
          depth = 0;
          adopted_round = 0;
          unclassified = st.neighbors;
          subtree_max = 0;
        }
      end
      else
        match !explore_senders with
        | [] -> st
        | senders ->
          let parent, pdepth =
            List.fold_left
              (fun (bu, bd) (u, d) -> if u < bu then (u, d) else (bu, bd))
              (List.hd senders) (List.tl senders)
          in
          let depth = pdepth + 1 in
          let others = remove parent st.neighbors in
          iter_rev (fun u -> Engine.Emit.frame2 em ~dst:u tag_explore depth) others;
          Engine.Emit.frame1 em ~dst:parent tag_accept;
          (* senders other than the chosen parent are adopted elsewhere *)
          let unclassified =
            List.filter (fun u -> not (List.mem_assoc u senders)) others
          in
          { st with depth; parent; adopted_round = round; unclassified; subtree_max = depth }
    in
    (* 3. Echo once the children are known and have all reported.  A step
       sends from at most one of steps 2-4: adoption precedes the echo by
       two rounds, and M only arrives after this node's echo. *)
    let children_known =
      st.depth >= 0 && st.unclassified = [] && round >= st.adopted_round + 2
    in
    let st =
      if children_known && st.echoes_missing = [] && not st.echo_sent then
        if st.is_root then begin
          let m = st.subtree_max in
          iter_rev (fun c -> Engine.Emit.frame2 em ~dst:c tag_m m) st.children;
          { st with echo_sent = true; m; halted = true }
        end
        else begin
          Engine.Emit.frame2 em ~dst:st.parent tag_echo st.subtree_max;
          { st with echo_sent = true }
        end
      else st
    in
    (* 4. Forward M downwards and halt. *)
    if st.m >= 0 && not st.halted then begin
      iter_rev (fun c -> Engine.Emit.frame2 em ~dst:c tag_m st.m) st.children;
      { st with halted = true }
    end
    else st
  in
  let ehalted st = st.halted in
  (* Wake hints: everything after adoption is message-driven, except the
     children-known echo check, which first becomes true at
     [adopted_round + 2] and can fire on an empty inbox (leaf with no
     unclassified neighbors). *)
  let ewake st =
    if st.depth >= 0 && not st.echo_sent then Engine.At (st.adopted_round + 2)
    else Engine.OnMessage
  in
  ({ einit; estep; ehalted; ewake } : state Engine.ealgorithm)

let info_of_states _g root states =
  let info =
    {
      root;
      depth = Array.map (fun st -> st.depth) states;
      parent = Array.map (fun st -> st.parent) states;
      children = Array.map (fun st -> List.sort compare st.children) states;
      height = states.(root).m;
      m_known = Array.map (fun st -> st.m) states;
    }
  in
  info

let info_of_states g ~root states = info_of_states g root states

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
