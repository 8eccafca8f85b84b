open Kdom_graph

type cluster = { center : int; members : int list; radius : int }

let make g ~center members =
  let c : Cluster.t = { center; members } in
  { center; members; radius = Cluster.radius g c }

let singletons g = List.init (Graph.n g) (fun v -> { center = v; members = [ v ]; radius = 0 })

let size c = List.length c.members

(* [owner] maps each node of [clusters.(i)] to [i] and every other node to
   -1. *)
let fill_owner owner clusters =
  Array.iteri (fun i c -> List.iter (fun v -> owner.(v) <- i) c.members) clusters

(* The contracted graph on the [nc] clusters that [owner] records. *)
let quotient_of_owner g owner nc =
  (* a cluster pair (a, b), a < b, is the int a * nc + b *)
  let seen = Int_table.create 16 in
  let pairs = ref [] in
  Array.iter
    (fun (e : Graph.edge) ->
      let a = owner.(e.u) and b = owner.(e.v) in
      if a >= 0 && b >= 0 && a <> b then begin
        let a, b = if a < b then (a, b) else (b, a) in
        let key = (a * nc) + b in
        if not (Int_table.mem seen key) then begin
          Int_table.add seen key ();
          pairs := (a, b, 1) :: !pairs
        end
      end)
    (Graph.edges g);
  Graph.of_edges ~n:nc !pairs

let quotient g clusters =
  let owner = Array.make (Graph.n g) (-1) in
  fill_owner owner clusters;
  quotient_of_owner g owner (Array.length clusters)

let isolated q =
  let acc = ref [] in
  for v = Graph.n q - 1 downto 0 do
    if Graph.degree q v = 0 then acc := v :: !acc
  done;
  !acc

let merge_into g ~target c = make g ~center:target.center (target.members @ c.members)

(* [make] for the disjoint clusters [(center, members)] at once, given
   [owner] from [fill_owner] and a [queue] with room for the largest: one
   BFS per cluster from its center, level by level, through the nodes it
   owns (a visited node is set to -2). *)
let make_disjoint g ~owner ~queue cs =
  Array.mapi
    (fun i (center, members) ->
      if owner.(center) <> i then
        invalid_arg "Forest.balanced_contraction: center outside its cluster";
      owner.(center) <- -2;
      queue.(0) <- center;
      let lo = ref 0 and hi = ref 1 and radius = ref 0 in
      while !lo < !hi do
        let next = ref !hi in
        for j = !lo to !hi - 1 do
          Array.iter
            (fun (u, _) ->
              if owner.(u) = i then begin
                owner.(u) <- -2;
                queue.(!next) <- u;
                incr next
              end)
            (Graph.neighbors g queue.(j))
        done;
        if !next > !hi then incr radius;
        lo := !hi;
        hi := !next
      done;
      if not (List.for_all (fun v -> owner.(v) = -2) members) then
        invalid_arg "Forest.balanced_contraction: merged cluster disconnected";
      { center; members; radius = !radius })
    cs

let balanced_contraction ?small g clusters =
  (* one host-sized owner map serves the quotient and then the new radii *)
  let owner = Array.make (Graph.n g) (-1) in
  fill_owner owner clusters;
  let q = quotient_of_owner g owner (Array.length clusters) in
  let label, ncomp = Traversal.components q in
  (* representative position of each component *)
  let comp_positions = Array.make ncomp [] in
  Array.iteri (fun pos comp -> comp_positions.(comp) <- pos :: comp_positions.(comp)) label;
  (* the new clusters as (center, members); a lone cluster passes through
     and its radius is recomputed with the others' *)
  let out = ref [] in
  let rounds = ref 1 in
  Array.iter
    (fun positions ->
      match positions with
      | [] -> ()
      | [ lone ] -> out := (clusters.(lone).center, clusters.(lone).members) :: !out
      | root_pos :: _ ->
        let t = Tree.root_component_at q root_pos in
        let bd = Balanced_dom.run ?small t in
        rounds := max !rounds bd.rounds;
        List.iter
          (fun (center_pos, member_positions) ->
            let members =
              List.concat_map (fun pos -> clusters.(pos).members) member_positions
            in
            out := (clusters.(center_pos).center, members) :: !out)
          (Balanced_dom.stars t bd))
    comp_positions;
  let merged = Array.of_list (List.rev !out) in
  (* clear the old positions first, so none can pass for a new one *)
  Array.iter (fun c -> List.iter (fun v -> owner.(v) <- -1) c.members) clusters;
  let largest = ref 0 in
  Array.iteri
    (fun i (_, members) ->
      largest := max !largest (List.length members);
      List.iter (fun v -> owner.(v) <- i) members)
    merged;
  (make_disjoint g ~owner ~queue:(Array.make !largest 0) merged, !rounds)

let simulation_factor ~radius_bound = (2 * radius_bound) + 1

let to_clusters cs = List.map (fun c -> ({ center = c.center; members = c.members } : Cluster.t)) cs
