open Kdom_graph
open Kdom_congest

type result = {
  dominating : bool array;
  level : int option;
  init : Bfs_tree.info;
  init_stats : Engine.stats;
  census_stats : Engine.stats option;
  rounds : int;
}

let tag_census = 0 (* [tag; l; counter] *)
let tag_result = 1 (* [tag; selected level] *)

(* Mutable per-node state, updated in place by [estep]. *)
type census_state = {
  depth : int;
  parent : int;
  children : int list;          (* ascending *)
  totals : int array;           (* root only: census totals per level *)
  mutable member : bool;
  mutable decided : int;        (* selected level, -1 until known *)
  mutable wake : Engine.wake;
  mutable halted : bool;
}

let rec send_result em level = function
  | [] -> ()
  | c :: rest ->
    Engine.Emit.frame2 em ~dst:c tag_result level;
    send_result em level rest

(* Census schedule: a node at depth [i] upcasts its census(l) counter at
   round [l + (M - i)]; the root owns totals at round [l + M]; the decision
   broadcast of round [k + M + 1] reaches depth [i] at [k + M + 1 + i].

   Frames are read in place through the packed-inbox decoder and written
   with the fixed-arity [Emit.frame*] helpers; a step allocates only the
   [At] of a node's first wake-up. *)
let census_algorithm (info : Bfs_tree.info) ~k : census_state Engine.ealgorithm
    =
  let m = info.height in
  let einit _g v =
    {
      depth = info.depth.(v);
      parent = info.parent.(v);
      children = info.children.(v);
      totals = (if v = info.root then Array.make (k + 1) 0 else [||]);
      member = false;
      decided = -1;
      wake = Engine.OnMessage;
      halted = false;
    }
  in
  let decide st em level ~member =
    st.decided <- level;
    st.member <- member;
    send_result em level st.children;
    st.halted <- true
  in
  let estep _g ~round ~node:_ st inbox em =
    let below = ref 0 in
    let result = ref (-1) in
    for i = 0 to Engine.Inbox.length inbox - 1 do
      let rd = Engine.Inbox.read inbox i in
      match Codec.get rd with
      | t when t = tag_census ->
        ignore (Codec.get rd);
        below := !below + Codec.get rd
      | t when t = tag_result -> result := Codec.get rd
      | t -> invalid_arg (Printf.sprintf "Diam_dom: unknown tag %d" t)
    done;
    let start = m - st.depth in
    let l = round - start in
    if l >= 0 && l <= k then begin
      let counter = !below + if st.depth mod (k + 1) = l then 1 else 0 in
      if st.parent = -1 then
        (* The root both counts itself and adds itself to classes l <> 0
           (the augmentation that repairs the Lemma 2.1 gap). *)
        st.totals.(l) <- counter + if l = 0 then 0 else 1
      else Engine.Emit.frame3 em ~dst:st.parent tag_census l counter
    end;
    if st.parent = -1 && round = k + m then begin
      let best = ref 0 in
      for l = 1 to k do
        if st.totals.(l) < st.totals.(!best) then best := l
      done;
      decide st em !best ~member:true
    end
    else if !result >= 0 then
      decide st em !result ~member:(st.depth mod (k + 1) = !result);
    (* Outside its census window [M - depth, M - depth + k] a node is
       purely message-driven (the decision broadcast); inside it, a node —
       leaves included — must upcast every round even on an empty inbox.
       The one [At] is the window's start. *)
    if round < start then begin
      match st.wake with Engine.At _ -> () | _ -> st.wake <- Engine.At start
    end
    else st.wake <- (if round < start + k then Engine.Next else Engine.OnMessage);
    st
  in
  let ehalted st = st.halted in
  let ewake st = st.wake in
  { Engine.einit; estep; ehalted; ewake }

(* Word budget: the widest message is [| tag_census; l; counter |] — 3
   words. *)
let census_max_words = 3

let dominating_of_states states = Array.map (fun st -> st.member) states

let run ?trace g ~root ~k =
  if k < 1 then invalid_arg "Diam_dom.run: k must be >= 1";
  if Graph.n g = 0 then invalid_arg "Diam_dom.run: empty graph";
  if root < 0 || root >= Graph.n g then
    invalid_arg (Printf.sprintf "Diam_dom.run: root %d out of range [0, %d)" root (Graph.n g));
  if not (Tree.is_tree g) then invalid_arg "Diam_dom.run: graph must be a tree";
  Trace.span_opt trace "diam_dom" @@ fun () ->
  let info, init_stats =
    Trace.span_opt trace "diam_dom.init" (fun () -> Bfs_tree.run ?trace g ~root)
  in
  if info.height <= k then begin
    (* Every node knows M and k after Initialize, so the outcome D = {root}
       is decided locally with no further communication. *)
    let dominating = Array.make (Graph.n g) false in
    dominating.(root) <- true;
    {
      dominating;
      level = None;
      init = info;
      init_stats;
      census_stats = None;
      rounds = init_stats.rounds;
    }
  end
  else begin
    let states, census_stats =
      Trace.observe trace ~max_words:census_max_words "diam_dom.census"
        (fun sink ->
          let c0 = match trace with Some t -> Trace.clock t | None -> 0 in
          let res =
            Runtime.run ~max_words:census_max_words ~sink g
              (census_algorithm info ~k)
          in
          (* The censuses are pipelined over one execution: census(l) is
             live from round [l] (depth-M leaves upcast) to round [l + M]
             (the root owns its total).  Record each as a synthetic span on
             its own track, clamped to the rounds actually executed. *)
          Option.iter
            (fun t ->
              let stop_max = Trace.clock t in
              for l = 0 to k do
                Trace.add_span t ~track:(1 + l)
                  ~name:(Printf.sprintf "diam_dom.census[%d]" l)
                  ~start_round:(min (c0 + l) stop_max)
                  ~stop_round:(min (c0 + l + info.height + 1) stop_max)
                  ()
              done)
            trace;
          res)
    in
    let dominating = dominating_of_states states in
    {
      dominating;
      level = Some states.(root).decided;
      init = info;
      init_stats;
      census_stats = Some census_stats;
      rounds = init_stats.rounds + census_stats.rounds;
    }
  end

let round_bound ~diam ~k = (5 * diam) + k + 10

let dominating_list r =
  let acc = ref [] in
  Array.iteri (fun v b -> if b then acc := v :: !acc) r.dominating;
  List.rev !acc

(* In-cluster re-run, for the repair story: run DiamDOM on the subtree
   induced by one cluster's surviving members and map the result back to
   host ids.  This is the centralized mirror of [Repair]'s distributed
   takeover — bench and CLI compare the two. *)
let redominate g ~members ~k =
  match members with
  | [] -> invalid_arg "Diam_dom.redominate: empty member set"
  | [ v ] -> [ v ]
  | _ ->
    let sub, host_of = Cluster.induced g members in
    let root = ref 0 in
    Array.iteri (fun i v -> if v < host_of.(!root) then root := i) host_of;
    let res = run sub ~root:!root ~k in
    List.map (fun v -> host_of.(v)) (dominating_list res)
