open Kdom_graph

type result = {
  clusters : Forest.cluster list;
  ledger : Ledger.t;
  rounds : int;
  iterations : int;
}

exception
  Partition_invariant of {
    stage : string;
    k : int;
    size : int;
    radius : int;
    members : int list;
  }

let () =
  Printexc.register_printer (function
    | Partition_invariant { stage; k; size; radius; members } ->
      Some
        (Printf.sprintf
           "Dom_partition.Partition_invariant: %s left a cluster of size %d < k+1 \
            (k = %d, radius %d, members [%s])"
           stage size k radius
           (String.concat "; " (List.map string_of_int members)))
    | _ -> None)

let iterations_for k = max 1 (Log_star.ceil_log2 (k + 1))

let validate g ~k =
  if k < 1 then invalid_arg "Dom_partition: k must be >= 1";
  if not (Tree.is_tree g) then invalid_arg "Dom_partition: host must be a tree";
  if Graph.n g < max 2 (k + 1) then
    invalid_arg "Dom_partition: tree must have at least max(2, k+1) nodes"

let max_radius_of arr =
  Array.fold_left (fun acc (c : Forest.cluster) -> max acc c.radius) 0 arr

let finish ledger iterations clusters =
  { clusters; ledger; rounds = Ledger.total ledger; iterations }

(* ------------------------------------------------------------------ *)
(* DOM_Partition_1 (Fig. 5) *)

let run_1 ?small ?trace g ~k =
  validate g ~k;
  Kdom_congest.Trace.span_opt trace "dom_partition" @@ fun () ->
  let ledger = Ledger.create () in
  let iters = iterations_for k in
  let clusters = ref (Array.of_list (Forest.singletons g)) in
  for i = 1 to iters do
    Kdom_congest.Trace.span_opt trace (Printf.sprintf "dom_partition.iter[%d]" i)
    @@ fun () ->
    let rmax = max_radius_of !clusters in
    let merged, bd_rounds = Forest.balanced_contraction ?small g !clusters in
    let cost = bd_rounds * Forest.simulation_factor ~radius_bound:rmax in
    Ledger.charge ledger (Printf.sprintf "iteration %d" i) cost;
    Kdom_congest.Trace.charge_opt trace cost;
    clusters := merged
  done;
  finish ledger iters (Array.to_list !clusters)

(* ------------------------------------------------------------------ *)
(* Shared S-set resolution (step 4 of Fig. 6). *)

let resolve_s ?trace g ~k ~out ~s_set ledger =
  let out = Array.of_list (List.rev out) in
  let owner = Array.make (Graph.n g) (-1) in
  Array.iteri
    (fun i (c : Forest.cluster) -> List.iter (fun v -> owner.(v) <- i) c.members)
    out;
  let extra = ref [] in
  let merges = ref 0 in
  List.iter
    (fun (c : Forest.cluster) ->
      if Forest.size c > k then extra := c :: !extra
      else begin
        (* find a neighboring cluster already in P_out *)
        let target = ref (-1) in
        List.iter
          (fun v ->
            Array.iter
              (fun (u, _) -> if !target = -1 && owner.(u) >= 0 then target := owner.(u))
              (Graph.neighbors g v))
          c.members;
        if !target = -1 then
          invalid_arg "Dom_partition: S cluster with no neighbor in P_out";
        out.(!target) <- Forest.merge_into g ~target:out.(!target) c;
        List.iter (fun v -> owner.(v) <- !target) c.members;
        incr merges
      end)
    (List.rev s_set);
  (* The star merges happen in parallel in O(k) time. *)
  if !merges > 0 || !extra <> [] then begin
    Ledger.charge ledger "S-set merge" ((2 * k) + 2);
    Kdom_congest.Trace.span_opt trace "dom_partition.s_merge" (fun () ->
        Kdom_congest.Trace.charge_opt trace ((2 * k) + 2))
  end;
  Array.to_list out @ List.rev !extra

let flush_in_play ~stage ~k ~out in_play =
  List.iter
    (fun (c : Forest.cluster) ->
      if Forest.size c < k + 1 then
        raise
          (Partition_invariant
             {
               stage;
               k;
               size = Forest.size c;
               radius = c.radius;
               members = List.sort compare c.members;
             }))
    in_play;
  in_play @ out

(* ------------------------------------------------------------------ *)
(* DOM_Partition_2 (Fig. 6) *)

let run_2 ?small ?trace g ~k =
  validate g ~k;
  Kdom_congest.Trace.span_opt trace "dom_partition" @@ fun () ->
  let ledger = Ledger.create () in
  let iters = iterations_for k in
  let in_play = ref (Forest.singletons g) in
  let out = ref [] in
  let s_set = ref [] in
  for i = 1 to iters do
    Kdom_congest.Trace.span_opt trace (Printf.sprintf "dom_partition.iter[%d]" i)
    @@ fun () ->
    let arr = Array.of_list !in_play in
    if Array.length arr > 0 then begin
      let rmax = max_radius_of arr in
      (* (3a) contract each tree of the forest *)
      let merged, bd_rounds = Forest.balanced_contraction ?small g arr in
      let cost = (bd_rounds * Forest.simulation_factor ~radius_bound:rmax) + (2 * k) + 2 in
      Ledger.charge ledger (Printf.sprintf "iteration %d" i) cost;
      Kdom_congest.Trace.charge_opt trace cost;
      (* (3b) retire clusters that reached radius k+1 *)
      let stay = ref [] in
      Array.iter
        (fun (c : Forest.cluster) ->
          if c.radius >= k + 1 then out := c :: !out else stay := c :: !stay)
        merged;
      (* (3c) lone clusters move to S *)
      let stay_arr = Array.of_list (List.rev !stay) in
      let q = Forest.quotient g stay_arr in
      let lone = Forest.isolated q in
      let is_lone = Array.make (Array.length stay_arr) false in
      List.iter (fun pos -> is_lone.(pos) <- true) lone;
      let keep = ref [] in
      Array.iteri
        (fun pos c -> if is_lone.(pos) then s_set := c :: !s_set else keep := c :: !keep)
        stay_arr;
      in_play := List.rev !keep
    end
  done;
  let out = flush_in_play ~stage:"DOM_Partition_2" ~k ~out:!out !in_play in
  finish ledger iters (resolve_s ?trace g ~k ~out ~s_set:!s_set ledger)

(* ------------------------------------------------------------------ *)
(* DOM_Partition (Fig. 7 additions) *)

let run ?small ?trace g ~k =
  validate g ~k;
  Kdom_congest.Trace.span_opt trace "dom_partition" @@ fun () ->
  let ledger = Ledger.create () in
  let iters = iterations_for k in
  let in_play = ref (Forest.singletons g) in
  let waiting = ref ([] : Forest.cluster list) in
  let out = ref [] in
  let s_set = ref [] in
  for i = 1 to iters do
    Kdom_congest.Trace.span_opt trace (Printf.sprintf "dom_partition.iter[%d]" i)
    @@ fun () ->
    let cap = 2 * (1 lsl i) in
    (* (3-I) waiting clusters return to the forest *)
    let candidates = !in_play @ !waiting in
    waiting := [];
    (* (3-II)/(3-III) radius > 2*2^i clusters do not participate *)
    let participants = ref [] in
    List.iter
      (fun (c : Forest.cluster) ->
        if c.radius > cap then waiting := c :: !waiting else participants := c :: !participants)
      candidates;
    let parts = ref (Array.of_list (List.rev !participants)) in
    (* (3-IV) lone participating clusters merge onto waiting neighbors *)
    let q = Forest.quotient g !parts in
    let lone = Forest.isolated q in
    if lone <> [] then begin
      let warr = ref (Array.of_list !waiting) in
      let wowner = Array.make (Graph.n g) (-1) in
      Array.iteri
        (fun idx (c : Forest.cluster) -> List.iter (fun v -> wowner.(v) <- idx) c.members)
        !warr;
      let lone_set = Array.make (Array.length !parts) false in
      List.iter (fun pos -> lone_set.(pos) <- true) lone;
      let keep = ref [] in
      Array.iteri
        (fun pos (c : Forest.cluster) ->
          if not lone_set.(pos) then keep := c :: !keep
          else begin
            (* every waiting cluster has radius <= k, so any adjacent node w
               of it has Depth(w) <= k as the figure requires *)
            let target = ref (-1) in
            List.iter
              (fun v ->
                Array.iter
                  (fun (u, _) -> if !target = -1 && wowner.(u) >= 0 then target := wowner.(u))
                  (Graph.neighbors g v))
              c.members;
            if !target = -1 then s_set := c :: !s_set
            else begin
              let merged = Forest.merge_into g ~target:(!warr).(!target) c in
              if merged.radius >= k + 1 then begin
                (* the merged cluster detects Depth > k and retires *)
                out := merged :: !out;
                List.iter (fun v -> wowner.(v) <- -1) merged.members;
                (* remove from waiting by marking empty *)
                (!warr).(!target) <- { merged with members = []; radius = 0 }
              end
              else begin
                (!warr).(!target) <- merged;
                List.iter (fun v -> wowner.(v) <- !target) c.members
              end
            end
          end)
        !parts;
      waiting :=
        Array.to_list !warr |> List.filter (fun (c : Forest.cluster) -> c.members <> []);
      parts := Array.of_list (List.rev !keep)
    end;
    (* (3a) contract; every participant has radius <= min(cap, k), and the
       simulation runs at the speed of the actual largest participant *)
    let rmax = min (max_radius_of !parts) (min cap k) in
    let merged, bd_rounds = Forest.balanced_contraction ?small g !parts in
    let cost = (bd_rounds * Forest.simulation_factor ~radius_bound:rmax) + cap + 2 in
    Ledger.charge ledger (Printf.sprintf "iteration %d" i) cost;
    Kdom_congest.Trace.charge_opt trace cost;
    (* (3b) retire clusters that reached radius k+1 *)
    let stay = ref [] in
    Array.iter
      (fun (c : Forest.cluster) ->
        if c.radius >= k + 1 then out := c :: !out else stay := c :: !stay)
      merged;
    in_play := List.rev !stay
  done;
  if !waiting <> [] then
    invalid_arg "Dom_partition.run: waiting set non-empty after the last iteration";
  let out = flush_in_play ~stage:"DOM_Partition" ~k ~out:!out !in_play in
  finish ledger iters (resolve_s ?trace g ~k ~out ~s_set:!s_set ledger)

(* ------------------------------------------------------------------ *)

let partition g r = Cluster.partition g (Forest.to_clusters r.clusters)

let max_radius r =
  List.fold_left (fun acc (c : Forest.cluster) -> max acc c.radius) 0 r.clusters

let min_size r =
  match r.clusters with
  | [] -> 0
  | cs -> List.fold_left (fun acc c -> min acc (Forest.size c)) max_int cs
