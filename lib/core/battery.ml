open Kdom_graph
open Kdom_congest

let names = [ "bfs"; "coloring"; "census"; "leader"; "smc"; "pipeline" ]

let no_stats = { Engine.rounds = 0; messages = 0; max_inflight = 0 }

(* The offline winner of the election: the node with the largest wave key. *)
let max_key_node n =
  let best = ref 0 in
  for v = 1 to n - 1 do
    if Leader.key ~n v > Leader.key ~n !best then best := v
  done;
  !best

let need_tree g what =
  if not (Tree.is_tree g) then
    invalid_arg (Printf.sprintf "%s needs a tree family" what)

let case g ~k name =
  let n = Graph.n g in
  match name with
  | "bfs" ->
    Some
      (Chaos.Case
         ( name,
           Bfs_tree.max_words,
           (fun () -> Bfs_tree.algorithm g ~root:0),
           fun states ->
             let info = Bfs_tree.info_of_states g ~root:0 states in
             Oracle.expect_ok name
               (Oracle.bfs_tree g ~root:0 ~parent:info.parent ~depth:info.depth) ))
  | "coloring" ->
    need_tree g name;
    Some
      (Chaos.Case
         ( name,
           Coloring.congest_max_words,
           (fun () -> Coloring.congest_algorithm g ~root:0),
           fun states ->
             Oracle.expect_ok name
               (Oracle.proper_coloring g ~palette:3 (Coloring.colors_of_states states)) ))
  | "census" ->
    need_tree g name;
    let info, _ = Bfs_tree.run g ~root:0 in
    (* the census stage only runs on trees deeper than k *)
    if info.height <= k then None
    else
      Some
        (Chaos.Case
           ( name,
             Diam_dom.census_max_words,
             (fun () -> Diam_dom.census_algorithm info ~k),
             fun states ->
               let centers = ref [] in
               Array.iteri
                 (fun v b -> if b then centers := v :: !centers)
                 (Diam_dom.dominating_of_states states);
               Oracle.expect_ok name
                 (Oracle.k_domination g ~k !centers
                 @ Oracle.size_within ~n ~k ~ceil:true !centers) ))
  | "leader" ->
    Some
      (Chaos.Case
         ( name,
           Leader.max_words,
           (fun () -> Leader.algorithm g),
           fun states ->
             let r = Leader.result_of_states states no_stats in
             let winner = max_key_node n in
             Oracle.expect_ok name
               ((if r.leader = winner then []
                 else
                   [
                     {
                       Oracle.check = "max-key leader";
                       detail =
                         Printf.sprintf "elected %d, the max-key node is %d" r.leader
                           winner;
                     };
                   ])
               @ Oracle.bfs_tree g ~root:r.leader ~parent:r.parent ~depth:r.depth) ))
  | "smc" ->
    Some
      (Chaos.Case
         ( name,
           Simple_mst_congest.max_words,
           (fun () -> Simple_mst_congest.algorithm g ~k),
           fun states ->
             let frags = Simple_mst_congest.fragments_of_states g states in
             let fragment_of = Array.make n (-1) in
             List.iteri
               (fun i (f : Simple_mst.fragment) ->
                 List.iter (fun v -> fragment_of.(v) <- i) f.members)
               frags;
             let ids =
               List.concat_map
                 (fun (f : Simple_mst.fragment) ->
                   List.map (fun (e : Graph.edge) -> e.id) f.tree_edges)
                 frags
             in
             Oracle.expect_ok name
               (Oracle.partition g ~fragment_of ~min_size:(min (k + 1) n)
               @ Oracle.mst_subforest g ids) ))
  | "pipeline" ->
    let dom = Fastdom_graph.run g ~k in
    let fragment_of = Simple_mst.fragment_of_array g dom.forest in
    let bfs, _ = Bfs_tree.run g ~root:0 in
    Some
      (Chaos.Case
         ( name,
           Pipeline.max_words,
           (fun () -> fst (Pipeline.algorithm g ~bfs ~fragment_of)),
           fun states ->
             Oracle.expect_ok name
               (Oracle.inter_fragment_mst g ~fragment_of
                  (List.map
                     (fun (e : Graph.edge) -> e.id)
                     (Pipeline.selected_of_states g ~fragment_of ~root:bfs.root states))) ))
  | other ->
    invalid_arg
      (Printf.sprintf "unknown algorithm %S (%s)" other (String.concat ", " names))
