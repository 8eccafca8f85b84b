open Kdom_graph

type t = { dominating : bool array; dominator : int array; rounds : int }

let run ?(small = Small_dom_set.via_mis) (t : Tree.t) =
  let nodes = Tree.nodes t in
  if List.length nodes < 2 then
    invalid_arg "Balanced_dom.run: component must have >= 2 nodes";
  let n = Graph.n t.graph in
  let sds = small t in
  let dominating = Array.copy sds.dominating in
  let dominator = Array.copy sds.dominator in
  (* Cluster sizes, to detect singletons. *)
  let star_size = Array.make n 0 in
  let recount () =
    Array.fill star_size 0 n 0;
    List.iter (fun v -> star_size.(dominator.(v)) <- star_size.(dominator.(v)) + 1) nodes
  in
  recount ();
  (* Step 2: each singleton dominator v quits D and selects a neighbor
     u outside D as its dominator.  Step 3: every selected u joins D and
     gathers its selectors into a new cluster. *)
  let selected = Array.make n false in
  let left_cluster_of = Array.make n (-1) in
  (* left_cluster_of.(c) = one member that left cluster c in step 3 *)
  List.iter
    (fun v ->
      if dominating.(v) && star_size.(v) = 1 then begin
        (* select outside the ORIGINAL dominating set, so that concurrent
           singleton fixes cannot pick each other *)
        let u = ref (-1) in
        Array.iter
          (fun (w, _) -> if (not sds.dominating.(w)) && (!u = -1 || w < !u) then u := w)
          (Graph.neighbors t.graph v);
        if !u = -1 then
          invalid_arg "Balanced_dom.run: singleton dominator with no neighbor outside D";
        dominating.(v) <- false;
        selected.(!u) <- true;
        left_cluster_of.(dominator.(!u)) <- !u;
        dominator.(v) <- !u
      end)
    nodes;
  List.iter
    (fun u ->
      if selected.(u) then begin
        dominating.(u) <- true;
        dominator.(u) <- u
      end)
    nodes;
  recount ();
  (* Step 4: a surviving dominator whose cluster became a singleton joins
     the new cluster of a member that left it in step 3, and quits D. *)
  List.iter
    (fun v ->
      if dominating.(v) && star_size.(v) = 1 then begin
        let u = left_cluster_of.(v) in
        if u = -1 then
          invalid_arg "Balanced_dom.run: emptied cluster with no defector";
        dominating.(v) <- false;
        dominator.(v) <- u
      end)
    nodes;
  { dominating; dominator; rounds = sds.rounds + 4 }

let stars t r =
  Small_dom_set.stars t
    { Small_dom_set.dominating = r.dominating; dominator = r.dominator; rounds = r.rounds }
