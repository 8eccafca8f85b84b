open Kdom_graph

type t = { dominating : bool array; dominator : int array; rounds : int }

let via_mis (t : Tree.t) =
  let n = Graph.n t.graph in
  let nodes = Tree.nodes t in
  let in_mis, rounds = Coloring.mis t in
  let dominator = Array.make n (-1) in
  List.iter
    (fun v ->
      if in_mis.(v) then dominator.(v) <- v
      else begin
        (* adopt the smallest adjacent MIS node; one exists by maximality *)
        let best = ref (-1) in
        Array.iter
          (fun (u, _) -> if in_mis.(u) && (!best = -1 || u < !best) then best := u)
          (Graph.neighbors t.graph v);
        if !best = -1 then invalid_arg "Small_dom_set.via_mis: MIS not maximal";
        dominator.(v) <- !best
      end)
    nodes;
  let dominating = Array.make n false in
  List.iter (fun v -> dominating.(v) <- in_mis.(v)) nodes;
  (* one more round: adoptions are announced to the chosen center *)
  { dominating; dominator; rounds = rounds + 1 }

let via_matching (t : Tree.t) =
  let n = Graph.n t.graph in
  let nodes = Tree.nodes t in
  if List.length nodes < 2 then
    invalid_arg "Small_dom_set.via_matching: component must have >= 2 nodes";
  let mate, rounds = Coloring.maximal_matching t in
  (* Unmatched nodes join an arbitrary (smallest) matched neighbor, which
     thereby becomes a star center. *)
  let joined = Array.make n (-1) in
  let got_join = Array.make n false in
  List.iter
    (fun v ->
      if mate.(v) = -1 then begin
        let best = ref (-1) in
        Array.iter
          (fun (u, _) -> if mate.(u) <> -1 && (!best = -1 || u < !best) then best := u)
          (Graph.neighbors t.graph v);
        if !best = -1 then invalid_arg "Small_dom_set.via_matching: matching not maximal";
        joined.(v) <- !best;
        got_join.(!best) <- true
      end)
    nodes;
  (* Decide the center of each matched pair: a node that received joins is
     a center; in a pair where neither did, the smaller id is.  In a pair
     where exactly one endpoint is a center the other becomes its member. *)
  let dominating = Array.make n false in
  let dominator = Array.make n (-1) in
  List.iter
    (fun v ->
      if mate.(v) <> -1 then begin
        let partner = mate.(v) in
        if got_join.(v) then begin
          dominating.(v) <- true;
          dominator.(v) <- v
        end
        else if got_join.(partner) then dominator.(v) <- partner
        else if v < partner then begin
          dominating.(v) <- true;
          dominator.(v) <- v
        end
        else dominator.(v) <- partner
      end)
    nodes;
  List.iter (fun v -> if mate.(v) = -1 then dominator.(v) <- joined.(v)) nodes;
  (* two more rounds: join announcements and center decisions *)
  { dominating; dominator; rounds = rounds + 2 }

let stars (t : Tree.t) r =
  let groups = Array.make (Array.length r.dominator) [] in
  List.iter (fun v -> groups.(r.dominator.(v)) <- v :: groups.(r.dominator.(v))) (Tree.nodes t);
  let acc = ref [] in
  for c = Array.length groups - 1 downto 0 do
    match groups.(c) with [] -> () | members -> acc := (c, members) :: !acc
  done;
  !acc
