open Kdom_graph
open Kdom_congest

type result = {
  mst : Graph.edge list;
  pipeline : Pipeline.result;
  bfs_stats : Engine.stats;
  rounds : int;
  edges_at_root : int;
}

let run ?(root = 0) g =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Collect_all.run: empty graph";
  if root < 0 || root >= n then
    invalid_arg (Printf.sprintf "Collect_all.run: root %d out of range [0, %d)" root n);
  let bfs, bfs_stats = Bfs_tree.run g ~root in
  let fragment_of = Array.init n Fun.id in
  let pipeline = Pipeline.run ~eliminate_cycles:false g ~bfs ~fragment_of in
  {
    mst = List.sort (fun (a : Graph.edge) b -> compare a.id b.id) pipeline.selected;
    pipeline;
    bfs_stats;
    rounds = bfs_stats.rounds + pipeline.rounds;
    edges_at_root = pipeline.root_received;
  }
