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

type census_state = {
  depth : int;
  parent : int;
  children : int list;
  m : int;
  k : int;
  member : bool;
  totals : int array;   (* root only: census totals per level *)
  decided : int;        (* selected level, -1 until known *)
  wake_round : int;     (* next round this node must act without mail; -1 = none *)
  halted : bool;
}

(* Census schedule: a node at depth [i] upcasts its census(l) counter at
   round [l + (M - i)]; the root owns totals at round [l + M]; the decision
   broadcast of round [k + M + 1] reaches depth [i] at [k + M + 1 + i].

   Emit-native: frames are read in place through the packed-inbox decoder
   and written with the fixed-arity [Emit.frame*] helpers, so a census
   step allocates only its own (immutable) state record. *)
let census_algorithm (info : Bfs_tree.info) ~k : census_state Engine.ealgorithm
    =
  let m = info.height in
  let einit _g v =
    {
      depth = info.depth.(v);
      parent = info.parent.(v);
      children = info.children.(v);
      m;
      k;
      member = false;
      totals = (if v = info.root then Array.make (k + 1) 0 else [||]);
      decided = -1;
      wake_round = m - info.depth.(v);
      halted = false;
    }
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
    let l = round - (st.m - st.depth) in
    let st =
      if l >= 0 && l <= st.k then begin
        let counter = !below + if st.depth mod (st.k + 1) = l then 1 else 0 in
        if st.parent = -1 then begin
          (* The root both counts itself and adds itself to classes l <> 0
             (the augmentation that repairs the Lemma 2.1 gap). *)
          st.totals.(l) <- counter + (if l = 0 then 0 else 1);
          st
        end
        else begin
          Engine.Emit.frame3 em ~dst:st.parent tag_census l counter;
          st
        end
      end
      else st
    in
    let st =
      if st.parent = -1 && round = st.k + st.m then begin
        let best = ref 0 in
        for l = 1 to st.k do
          if st.totals.(l) < st.totals.(!best) then best := l
        done;
        let st = { st with decided = !best; member = true } in
        List.iter
          (fun c -> Engine.Emit.frame2 em ~dst:c tag_result !best)
          st.children;
        { st with halted = true }
      end
      else if !result >= 0 then begin
        List.iter
          (fun c -> Engine.Emit.frame2 em ~dst:c tag_result !result)
          st.children;
        {
          st with
          decided = !result;
          member = st.depth mod (st.k + 1) = !result;
          halted = true;
        }
      end
      else st
    in
    (* Outside its census window [M - depth, M - depth + k] a node is
       purely message-driven (the decision broadcast); inside it, a node —
       leaves included — must upcast every round even on an empty inbox. *)
    let start = st.m - st.depth in
    let wake_round =
      if round < start then start
      else if round < start + st.k then round + 1
      else -1
    in
    { st with wake_round }
  in
  let ehalted st = st.halted in
  let ewake st =
    if st.wake_round >= 0 then Engine.At st.wake_round else Engine.OnMessage
  in
  { Engine.einit; estep; ehalted; ewake }

(* Word budget: the widest message is [| tag_census; l; counter |] — 3
   words. *)
let census_max_words = 3

let dominating_of_states states = Array.map (fun st -> st.member) states

let run ?trace g ~root ~k =
  if k < 1 then invalid_arg "Diam_dom.run: k must be >= 1";
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
