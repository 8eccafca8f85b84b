open Kdom_graph
open Kdom_congest

type result = { colors : int array; palette : int; rounds : int }

(* Number of bits needed to write any value in [0, palette). *)
let bits_of_palette palette = if palette <= 2 then 1 else Log_star.log2 (palette - 1) + 1

let cv_iterations palette =
  let rec go acc palette =
    if palette <= 6 then acc else go (acc + 1) (2 * bits_of_palette palette)
  in
  go 0 (max palette 1)

let lowest_differing_bit a b =
  if a = b then invalid_arg "Coloring: equal colors on an edge (coloring not proper)";
  let rec go i x = if x land 1 = 1 then i else go (i + 1) (x lsr 1) in
  go 0 (a lxor b)

(* One Cole–Vishkin step; [parent_color] is -1 at the root, which pretends
   its parent differs in bit 0. *)
let cv_step ~parent_color ~color =
  if parent_color < 0 then color land 1
  else
    let i = lowest_differing_bit color parent_color in
    (2 * i) + ((color lsr i) land 1)

let component_nodes (t : Tree.t) = Tree.nodes t

let six_color (t : Tree.t) =
  let n = Graph.n t.graph in
  let colors = Array.make n (-1) in
  let nodes = component_nodes t in
  List.iter (fun v -> colors.(v) <- v) nodes;
  let iterations = cv_iterations n in
  let next = Array.make n (-1) in
  for _it = 1 to iterations do
    List.iter
      (fun v ->
        let parent_color = if t.parent.(v) = -1 then -1 else colors.(t.parent.(v)) in
        next.(v) <- cv_step ~parent_color ~color:colors.(v))
      nodes;
    List.iter (fun v -> colors.(v) <- next.(v)) nodes
  done;
  (* +1 round: the initial dissemination of identifier colors. *)
  { colors; palette = 6; rounds = iterations + 1 }

(* The smallest colour in {0, 1, 2} other than [a] and [b] (-1 = none). *)
let smallest_free a b = if a <> 0 && b <> 0 then 0 else if a <> 1 && b <> 1 then 1 else 2

(* Shift-down: every node adopts its parent's color; the root picks a fresh
   color in {0,1,2}. Preserves properness and makes all siblings equal. *)
let shift_down (t : Tree.t) colors nodes =
  let next = Array.copy colors in
  List.iter
    (fun v ->
      if t.parent.(v) = -1 then next.(v) <- smallest_free colors.(v) (-1)
      else next.(v) <- colors.(t.parent.(v)))
    nodes;
  next

let three_color (t : Tree.t) =
  let { colors; rounds; _ } = six_color t in
  let nodes = component_nodes t in
  let rounds = ref rounds in
  let colors = ref colors in
  for c = 5 downto 3 do
    let pre_shift = !colors in
    let shifted = shift_down t pre_shift nodes in
    List.iter
      (fun v ->
        if shifted.(v) = c then begin
          (* After the shift all children of v share v's pre-shift color. *)
          shifted.(v) <-
            smallest_free
              (if t.parent.(v) = -1 then -1 else shifted.(t.parent.(v)))
              (if Array.length t.children.(v) = 0 then -1 else pre_shift.(v))
        end)
      nodes;
    colors := shifted;
    (* one round to learn the parent's shifted color, one to announce the
       recolored class downwards *)
    rounds := !rounds + 2
  done;
  { colors = !colors; palette = 3; rounds = !rounds }

let mis (t : Tree.t) =
  let { colors; rounds; _ } = three_color t in
  let nodes = component_nodes t in
  let n = Graph.n t.graph in
  let in_mis = Array.make n false in
  let dominated = Array.make n false in
  for c = 0 to 2 do
    List.iter
      (fun v ->
        if colors.(v) = c && (not dominated.(v)) && not in_mis.(v) then in_mis.(v) <- true)
      nodes;
    List.iter
      (fun v ->
        if in_mis.(v) then
          Array.iter (fun (u, _) -> if not in_mis.(u) then dominated.(u) <- true)
            (Graph.neighbors t.graph v))
      nodes
  done;
  (in_mis, rounds + 3)

let maximal_matching (t : Tree.t) =
  let { colors; rounds; _ } = three_color t in
  let nodes = component_nodes t in
  let n = Graph.n t.graph in
  let mate = Array.make n (-1) in
  for c = 0 to 2 do
    (* Unmatched nodes of color class c propose to an unmatched parent. *)
    let proposals = Hashtbl.create 16 in
    List.iter
      (fun v ->
        let p = t.parent.(v) in
        if colors.(v) = c && mate.(v) = -1 && p <> -1 && mate.(p) = -1 then
          Hashtbl.replace proposals p
            (match Hashtbl.find_opt proposals p with
            | Some best -> min best v
            | None -> v))
      nodes;
    Hashtbl.iter
      (fun p v ->
        mate.(p) <- v;
        mate.(v) <- p)
      proposals
  done;
  (mate, rounds + (3 * 3))

(* ------------------------------------------------------------------ *)
(* Message-level CONGEST execution of three_color.                     *)

(* Mutable per-node state, updated in place by [estep]. *)
type congest_state = {
  parent : int;                 (* -1 at the root *)
  children : int array;
  mutable color : int;
  mutable parent_color : int;   (* latest color heard from the parent; -1 at
                                   the root, which nothing sends to *)
  mutable pre_shift : int;      (* own color before the current shift-down *)
  mutable done_ : bool;
}

let congest_algorithm g ~root =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Coloring.three_color_congest: empty graph";
  if root < 0 || root >= n then
    invalid_arg
      (Printf.sprintf "Coloring.three_color_congest: root %d out of range [0, %d)" root n);
  let t = Tree.root_at g root in
  let iterations = cv_iterations (Graph.n g) in
  let last_round = iterations + 6 in
  let estep _g ~round ~node:_ st inbox em =
    (match Engine.Inbox.length inbox with
    | 0 -> ()
    | 1 -> st.parent_color <- Codec.get (Engine.Inbox.read inbox 0)
    | _ -> invalid_arg "three_color_congest: more than one parent message");
    if round = 0 then ()
    else if round <= iterations then
      (* Cole–Vishkin iteration [round]. *)
      st.color <- cv_step ~parent_color:st.parent_color ~color:st.color
    else if (round - iterations - 1) mod 2 = 0 then begin
      (* shift-down using the cached parent color *)
      st.pre_shift <- st.color;
      st.color <- (if st.parent = -1 then smallest_free st.color (-1) else st.parent_color)
    end
    else if st.color = 5 - ((round - iterations - 1) / 2) then
      st.color <-
        smallest_free st.parent_color
          (if Array.length st.children = 0 then -1 else st.pre_shift);
    if round >= last_round then st.done_ <- true
    else
      for i = 0 to Array.length st.children - 1 do
        Engine.Emit.frame1 em ~dst:st.children.(i) st.color
      done;
    st
  in
  {
    Engine.einit =
      (fun _g v ->
        {
          parent = t.parent.(v);
          children = t.children.(v);
          color = v;
          parent_color = -1;
          pre_shift = -1;
          done_ = false;
        });
    estep;
    ehalted = (fun st -> st.done_);
    (* Genuinely dense: every node recolors every round of the fixed
       [last_round]-length schedule, so the legacy schedule is the right
       one. *)
    ewake = Engine.always;
  }

(* Word budget: every message is a bare [| color |] — 1 word. *)
let congest_max_words = 1

let colors_of_states states = Array.map (fun st -> st.color) states

let three_color_congest ?trace g ~root =
  Trace.observe trace ~max_words:congest_max_words "coloring.three_color" (fun sink ->
      let states, stats =
        Runtime.run ~max_words:congest_max_words ~sink g (congest_algorithm g ~root)
      in
      (colors_of_states states, stats))
