(* Tests for the application layer: routing [PU], center selection [BKP],
   directory placement [P2], and the synchronizer cost model. *)

open Kdom_graph
open Kdom_apps

let rng () = Rng.create 0xA995

let graphs seed =
  let r = Rng.create seed in
  [
    ("gnp80", Generators.gnp_connected ~rng:r ~n:80 ~p:0.06);
    ("grid7x7", Generators.grid ~rng:r ~rows:7 ~cols:7);
    ("lollipop", Generators.lollipop ~rng:r ~clique:10 ~tail:20);
    ("tree60", Generators.random_tree ~rng:r 60);
  ]

(* ------------------------------------------------------------------ *)
(* Routing *)

let test_routing_delivers () =
  List.iter
    (fun (name, g) ->
      let scheme = Routing.build g ~k:3 in
      let r = rng () in
      for _i = 1 to 50 do
        let src = Rng.int r (Graph.n g) and dst = Rng.int r (Graph.n g) in
        if src <> dst then begin
          let route = Routing.route scheme ~src ~dst in
          (match route.path with
          | first :: _ -> Alcotest.(check int) (name ^ " starts at src") src first
          | [] -> Alcotest.fail "empty path");
          Alcotest.(check int)
            (name ^ " ends at dst")
            dst
            (List.nth route.path (List.length route.path - 1));
          (* consecutive hops are edges *)
          let rec check_hops = function
            | a :: (b :: _ as rest) ->
              Alcotest.(check bool) (name ^ " hop is edge") true
                (Option.is_some (Graph.find_edge g a b));
              check_hops rest
            | _ -> ()
          in
          check_hops route.path
        end
      done)
    (graphs 1)

let test_routing_stretch_bound () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          let scheme = Routing.build g ~k in
          let r = rng () in
          for _i = 1 to 40 do
            let src = Rng.int r (Graph.n g) and dst = Rng.int r (Graph.n g) in
            if src <> dst then begin
              let route = Routing.route scheme ~src ~dst in
              Alcotest.(check bool)
                (Printf.sprintf "%s k=%d additive stretch %d <= %d + 2k" name k route.hops
                   route.shortest)
                true
                (route.hops <= route.shortest + (2 * k))
            end
          done)
        [ 1; 2; 4 ])
    (graphs 2)

let test_routing_tables_shrink () =
  let g = Generators.gnp_connected ~rng:(rng ()) ~n:150 ~p:0.04 in
  let scheme = Routing.build g ~k:5 in
  let report = Routing.evaluate ~rng:(rng ()) scheme ~pairs:100 in
  Alcotest.(check bool)
    (Printf.sprintf "avg table %.1f < full %d" report.avg_table
       (Routing.full_table_size g))
    true
    (report.avg_table < float_of_int (Routing.full_table_size g));
  Alcotest.(check bool) "stretch sane" true (report.max_stretch < 20.0)

(* ------------------------------------------------------------------ *)
(* Centers *)

let test_centers_kdom () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          let p = Centers.via_kdom g ~k in
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d max distance %d <= k" name k p.max_distance)
            true
            (p.max_distance <= k);
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d count" name k)
            true
            (p.count <= max 1 (2 * Graph.n g / (k + 1))))
        [ 1; 2; 4 ])
    (graphs 3)

let test_centers_greedy_and_random () =
  let g = Generators.gnp_connected ~rng:(rng ()) ~n:100 ~p:0.05 in
  let kdom = Centers.via_kdom g ~k:3 in
  let greedy = Centers.greedy_k_center g ~count:kdom.count in
  let random = Centers.random_placement ~rng:(rng ()) g ~count:kdom.count in
  Alcotest.(check int) "same count greedy" kdom.count greedy.count;
  Alcotest.(check int) "same count random" kdom.count random.count;
  (* greedy with the same budget cannot be drastically worse than the
     k-dominating placement (2-approximation of the optimum) *)
  Alcotest.(check bool)
    (Printf.sprintf "greedy %d <= 2 * kdom %d" greedy.max_distance kdom.max_distance)
    true
    (greedy.max_distance <= 2 * kdom.max_distance)

(* ------------------------------------------------------------------ *)
(* Directory *)

let test_directory () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          let d = Directory.place g ~k in
          let c = Directory.evaluate d in
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d lookup %d <= k" name k c.max_lookup)
            true
            (c.max_lookup <= k);
          (* lookups return an actual copy at the measured distance *)
          for v = 0 to Graph.n g - 1 do
            let copy, hops = Directory.lookup d v in
            Alcotest.(check bool) (name ^ " copy is a copy") true (List.mem copy d.copies);
            Alcotest.(check int)
              (name ^ " lookup distance")
              (Traversal.bfs g v).dist.(copy)
              hops
          done)
        [ 2; 4 ])
    (graphs 4)

let test_directory_tradeoff () =
  (* larger k => fewer copies => cheaper updates, costlier lookups *)
  let g = Generators.grid ~rng:(rng ()) ~rows:10 ~cols:10 in
  let c2 = Directory.evaluate (Directory.place g ~k:1) in
  let c8 = Directory.evaluate (Directory.place g ~k:8) in
  Alcotest.(check bool)
    (Printf.sprintf "copies shrink %d > %d" c2.copies c8.copies)
    true (c2.copies > c8.copies);
  Alcotest.(check bool) "lookup grows" true (c8.avg_lookup >= c2.avg_lookup)

(* ------------------------------------------------------------------ *)
(* Disconnected and crash-censored graphs: the serving layer exposed two
   apps-layer crashes (update_cost walking the -1 parent sentinel out of
   bounds; route climbing a foreign center's BFS tree from another
   component) and a silent metric bug (averages summing max_int sentinel
   distances).  These regression tests fail on the old code. *)

let disjoint_union g1 g2 =
  let n1 = Graph.n g1 in
  let shift d (e : Graph.edge) = (e.u + d, e.v + d, e.w) in
  let edges =
    Array.to_list (Array.map (shift 0) (Graph.edges g1))
    @ Array.to_list (Array.map (shift n1) (Graph.edges g2))
  in
  Graph.of_edges ~n:(n1 + Graph.n g2) edges

let two_blobs seed n1 n2 =
  let r = Rng.create seed in
  let blob n = Generators.gnp_connected ~rng:r ~n ~p:(Float.min 1.0 (8.0 /. float_of_int n)) in
  disjoint_union (blob n1) (blob n2)

(* Drop every edge incident to a crashed node, keeping the node ids — the
   shape a graph has after churn censors the fail-stopped nodes. *)
let censor g dead =
  let edges =
    Array.to_list (Graph.edges g)
    |> List.filter_map (fun (e : Graph.edge) ->
           if List.mem e.u dead || List.mem e.v dead then None
           else Some (e.u, e.v, e.w))
  in
  Graph.of_edges ~n:(Graph.n g) edges

(* One cluster per connected component, centered on its first node. *)
let component_partition g =
  let comp, ncomp = Traversal.components g in
  let members = Array.make ncomp [] in
  for v = Graph.n g - 1 downto 0 do
    members.(comp.(v)) <- v :: members.(comp.(v))
  done;
  Kdom.Cluster.partition g
    (Array.to_list
       (Array.map
          (fun ms -> { Kdom.Cluster.center = List.hd ms; members = ms })
          members))

let test_directory_unreachable_copy () =
  (* a copy in the second component: the old update_cost walked its parent
     chain past the -1 sentinel and indexed out of bounds *)
  let g = two_blobs 11 30 20 in
  let d = Directory.of_copies g ~k:3 ~copies:[ 0; 30 ] in
  let c = Directory.evaluate d in
  Alcotest.(check int) "both components reachable" (Graph.n g) c.reachable;
  Alcotest.(check int) "copy 30 outside the update tree" 1 c.unreachable_copies;
  Alcotest.(check bool) "update cost finite" true
    (c.update_cost >= 0 && c.update_cost < Graph.n g)

let test_directory_sentinel_average () =
  (* no copy in the second component: the old average summed max_int
     sentinel distances *)
  let g = two_blobs 12 30 20 in
  let d = Directory.of_copies g ~k:3 ~copies:[ 0 ] in
  let c = Directory.evaluate d in
  Alcotest.(check int) "only the first blob reachable" 30 c.reachable;
  Alcotest.(check bool) "average over reachable nodes only" true
    (c.avg_lookup >= 0.0 && c.avg_lookup <= float_of_int (Graph.n g));
  Alcotest.(check bool) "max over reachable nodes only" true
    (c.max_lookup < Graph.n g);
  let copy, hops = Directory.lookup d 35 in
  Alcotest.(check int) "unreachable lookup copy sentinel" (-1) copy;
  Alcotest.(check int) "unreachable lookup distance sentinel" max_int hops

let test_routing_cross_component () =
  let g = two_blobs 13 30 20 in
  let scheme = Routing.of_partition g ~k:3 (component_partition g) in
  (* the old route walked towards.(ci).(-1): index out of bounds *)
  (match Routing.route_opt scheme ~src:2 ~dst:35 with
  | None -> ()
  | Some _ -> Alcotest.fail "cross-component pair routed");
  (try
     ignore (Routing.route scheme ~src:2 ~dst:35);
     Alcotest.fail "expected Routing.Unreachable"
   with Routing.Unreachable { src = 2; dst = 35 } -> ());
  (* same-component pairs still deliver *)
  (match Routing.route_opt scheme ~src:2 ~dst:7 with
  | Some r ->
    Alcotest.(check int) "ends at dst" 7 (List.nth r.path (List.length r.path - 1))
  | None -> Alcotest.fail "intra-component pair unroutable");
  let report = Routing.evaluate ~rng:(rng ()) scheme ~pairs:200 in
  Alcotest.(check bool) "some sampled pairs cross components" true
    (report.reachable < report.pairs);
  Alcotest.(check bool) "stretch finite" true
    (report.avg_stretch >= 1.0 && report.avg_stretch < float_of_int (Graph.n g))

(* ------------------------------------------------------------------ *)
(* qcheck: the apps layer is total on disconnected and crash-censored
   graphs, and the serving layer agrees with the offline oracle. *)

let gen_disconnected =
  QCheck2.Gen.(quad (int_bound 10_000) (int_range 8 40) (int_range 8 40) (int_range 1 4))

let prop_apps_total_on_disconnected =
  QCheck2.Test.make ~name:"directory/routing total on disconnected graphs" ~count:40
    gen_disconnected (fun (seed, n1, n2, k) ->
      let g = two_blobs seed n1 n2 in
      let p = component_partition g in
      let centers = Kdom.Cluster.centers p in
      let d = Directory.of_copies g ~k ~copies:centers in
      let c = Directory.evaluate d in
      let scheme = Routing.of_partition g ~k p in
      let rep = Routing.evaluate ~rng:(Rng.create (seed + 1)) scheme ~pairs:60 in
      c.reachable = Graph.n g
      && c.avg_lookup >= 0.0
      && c.avg_lookup <= float_of_int (Graph.n g)
      && c.unreachable_copies = List.length centers - 1
      && rep.avg_stretch >= 1.0
      && rep.avg_stretch < float_of_int (Graph.n g)
      && Routing.route_opt scheme ~src:0 ~dst:n1 = None)

let prop_apps_total_on_censored =
  QCheck2.Test.make ~name:"directory/routing total on crash-censored graphs"
    ~count:40
    QCheck2.Gen.(triple (int_bound 10_000) (int_range 20 80) (int_range 1 5))
    (fun (seed, n, crashes) ->
      let r = Rng.create seed in
      let g0 = Generators.gnp_connected ~rng:r ~n ~p:(8.0 /. float_of_int n) in
      let dead = List.init crashes (fun _ -> Rng.int r n) in
      let g = censor g0 dead in
      let p = component_partition g in
      let centers = Kdom.Cluster.centers p in
      let d = Directory.of_copies g ~k:2 ~copies:centers in
      let c = Directory.evaluate d in
      let scheme = Routing.of_partition g ~k:2 p in
      let rep = Routing.evaluate ~rng:(Rng.create (seed + 1)) scheme ~pairs:40 in
      (* a center in every component: every node reachable, metrics finite *)
      c.reachable = Graph.n g
      && c.max_lookup < Graph.n g
      && rep.avg_stretch >= 1.0
      && rep.max_stretch < float_of_int (max 2 (Graph.n g)))

(* Serving through the per-component forest answers exactly like the
   offline directory: the dominator is the component's copy and the round
   trip is twice the lookup distance. *)
let prop_serve_matches_offline_lookup =
  QCheck2.Test.make ~name:"serve lookups agree with Directory.lookup" ~count:25
    QCheck2.Gen.(triple (int_bound 10_000) (int_range 15 60) (int_range 0 3))
    (fun (seed, n, crashes) ->
      let open Kdom_congest in
      let r = Rng.create seed in
      let g0 = Generators.gnp_connected ~rng:r ~n ~p:(8.0 /. float_of_int n) in
      let dead = List.init crashes (fun _ -> Rng.int r n) in
      let g = censor g0 dead in
      let p = component_partition g in
      let centers = Kdom.Cluster.centers p in
      let plan = Kdom.Cluster.plan_of_partition p in
      let d = Directory.of_copies g ~k:2 ~copies:centers in
      let requests =
        Array.init (Graph.n g) (fun v ->
            { Serve.origin = v; kind = Serve.Lookup; at = v mod 8 })
      in
      let dmax = Array.fold_left max 0 plan.Repair.depth in
      (* all requests land in an 8-round window, so queueing at the
         center can delay a reply by up to 2n rounds on top of the trip *)
      let horizon = 8 + (4 * dmax) + (2 * Graph.n g) + 16 in
      let cfg =
        { Serve.plan; requests; horizon; retry_after = horizon; retries = 0 }
      in
      let e = Engine.create g in
      let states, _ = Serve.run e cfg in
      let rep = Serve.decode cfg states in
      Serve.check g cfg rep = []
      && Array.for_all
           (fun i ->
             let copy, dist = Directory.lookup d requests.(i).Serve.origin in
             match rep.Serve.outcomes.(i) with
             | Serve.Answered { hops; answer; _ } ->
               answer = copy && hops = 2 * dist
             | _ -> false)
           (Array.init (Array.length requests) Fun.id))

(* ------------------------------------------------------------------ *)
(* Synchronizer cost model *)

(* every node sends its id to every neighbor for [rounds] rounds *)
let chatter rounds : int Kdom_congest.Engine.ealgorithm =
  {
    einit = (fun _ _ -> rounds);
    ehalted = (fun left -> left = 0);
    estep =
      (fun g ~round:_ ~node left _inbox em ->
        let left = left - 1 in
        if left > 0 then
          Array.iter
            (fun (u, _) -> Kdom_congest.Engine.Emit.frame1 em ~dst:u node)
            (Graph.neighbors g node);
        left);
    ewake = Kdom_congest.Engine.always;
  }

(* §1.2's α-synchronizer charge, measured on the asynchronous executor:
   beyond one acknowledgment per algorithm message, every simulated round
   costs one SAFE per edge per direction.  The last pulse may be entered
   by some nodes before all halt, so it is charged at most once more. *)
let test_synchronizer () =
  let g = Generators.gnp_connected ~rng:(rng ()) ~n:50 ~p:0.1 in
  let rounds = 20 in
  let _, frep =
    Kdom_congest.Async.run_reliable ~rng:(rng ()) g (chatter rounds)
  in
  let r = frep.Kdom_congest.Async.report in
  let _, stats = Kdom_congest.Runtime.run g (chatter rounds) in
  Alcotest.(check int) "sync rounds" rounds stats.rounds;
  Alcotest.(check bool)
    (Printf.sprintf "pulses %d in {%d, %d}" r.pulses rounds (rounds + 1))
    true
    (r.pulses = rounds || r.pulses = rounds + 1);
  Alcotest.(check int) "algorithm traffic" stats.messages r.alg_messages;
  let alpha = r.sync_messages - r.alg_messages and per_round = 2 * Graph.m g in
  Alcotest.(check bool)
    (Printf.sprintf "alpha traffic %d in [%d, %d]" alpha (per_round * rounds)
       (per_round * r.pulses))
    true
    (per_round * rounds <= alpha && alpha <= per_round * r.pulses);
  Alcotest.(check int) "no retransmissions" 0 frep.retransmits;
  Alcotest.(check bool) "async time positive" true (r.async_time > 0.0);
  (* a pulse waits for a message, its ack and a SAFE: three delays each *)
  Alcotest.(check bool)
    (Printf.sprintf "async time %.1f <= 3 * pulses" r.async_time)
    true
    (r.async_time <= 3.0 *. float_of_int r.pulses)

let () =
  Alcotest.run "apps"
    [
      ( "routing",
        [
          Alcotest.test_case "delivers along edges" `Quick test_routing_delivers;
          Alcotest.test_case "additive 2k stretch" `Quick test_routing_stretch_bound;
          Alcotest.test_case "tables shrink" `Quick test_routing_tables_shrink;
        ] );
      ( "centers",
        [
          Alcotest.test_case "k-dominating placement" `Quick test_centers_kdom;
          Alcotest.test_case "greedy and random baselines" `Quick
            test_centers_greedy_and_random;
        ] );
      ( "directory",
        [
          Alcotest.test_case "lookup within k" `Quick test_directory;
          Alcotest.test_case "replication tradeoff" `Quick test_directory_tradeoff;
        ] );
      ( "partial graphs",
        [
          Alcotest.test_case "directory with unreachable copy" `Quick
            test_directory_unreachable_copy;
          Alcotest.test_case "directory averages skip sentinels" `Quick
            test_directory_sentinel_average;
          Alcotest.test_case "routing across components" `Quick
            test_routing_cross_component;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_apps_total_on_disconnected;
            prop_apps_total_on_censored;
            prop_serve_matches_offline_lookup;
          ] );
      ("synchronizer", [ Alcotest.test_case "alpha cost model" `Quick test_synchronizer ]);
    ]
