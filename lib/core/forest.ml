open Kdom_graph

type cluster = { center : int; members : int list; radius : int }

let make g ~center members =
  let c : Cluster.t = { center; members } in
  { center; members; radius = Cluster.radius g c }

let singletons g = List.init (Graph.n g) (fun v -> { center = v; members = [ v ]; radius = 0 })

let size c = List.length c.members

let owners g clusters = Cluster.owners g (Array.map (fun c -> c.members) clusters)

let quotient g clusters =
  Cluster.quotient g ~owner:(owners g clusters) (Array.length clusters)

let isolated q =
  let acc = ref [] in
  for v = Graph.n q - 1 downto 0 do
    if Graph.degree q v = 0 then acc := v :: !acc
  done;
  !acc

let merge_into g ~target c = make g ~center:target.center (target.members @ c.members)

let balanced_contraction ?small g clusters =
  (* one host-sized owner map serves the quotient and then the new radii *)
  let owner = owners g clusters in
  let q = Cluster.quotient g ~owner (Array.length clusters) in
  let label, ncomp = Traversal.components q in
  (* representative position of each component *)
  let comp_positions = Array.make ncomp [] in
  Array.iteri (fun pos comp -> comp_positions.(comp) <- pos :: comp_positions.(comp)) label;
  (* a lone cluster passes through and its radius is recomputed with the
     others' *)
  let out = ref [] in
  let rounds = ref 1 in
  Array.iter
    (fun positions ->
      match positions with
      | [] -> ()
      | [ lone ] ->
        let c = clusters.(lone) in
        out := { Cluster.center = c.center; members = c.members } :: !out
      | root_pos :: _ ->
        let t = Tree.root_component_at q root_pos in
        let bd = Balanced_dom.run ?small t in
        rounds := max !rounds bd.rounds;
        List.iter
          (fun (center_pos, member_positions) ->
            let members =
              List.concat_map (fun pos -> clusters.(pos).members) member_positions
            in
            out := { Cluster.center = clusters.(center_pos).center; members } :: !out)
          (Balanced_dom.stars t bd))
    comp_positions;
  let merged = Array.of_list (List.rev !out) in
  (* clear the old positions first, so none can pass for a new one *)
  Array.iter (fun c -> List.iter (fun v -> owner.(v) <- -1) c.members) clusters;
  let largest = ref 0 in
  Array.iteri
    (fun i (c : Cluster.t) ->
      largest := max !largest (List.length c.members);
      List.iter (fun v -> owner.(v) <- i) c.members)
    merged;
  let queue = Array.make !largest 0 in
  let radii = Cluster.bfs_trees g ~owner ~queue ~visit:(fun _ _ -> ()) merged in
  ( Array.map2
      (fun (c : Cluster.t) radius -> { center = c.center; members = c.members; radius })
      merged radii,
    !rounds )

let simulation_factor ~radius_bound = (2 * radius_bound) + 1

let to_clusters cs = List.map (fun c -> ({ center = c.center; members = c.members } : Cluster.t)) cs
