(* Tests for the message-level leader election (the [P] citation that
   discharges FastMST's designated-root assumption). *)

open Kdom_graph
open Kdom

let graphs seed =
  let r = Rng.create seed in
  [
    ("path30", Generators.path ~rng:r 30);
    ("star20", Generators.star ~rng:r 20);
    ("cycle25", Generators.cycle ~rng:r 25);
    ("grid6x6", Generators.grid ~rng:r ~rows:6 ~cols:6);
    ("gnp80", Generators.gnp_connected ~rng:r ~n:80 ~p:0.06);
    ("tree100", Generators.random_tree ~rng:r 100);
    ("complete15", Generators.complete ~rng:r 15);
    ("lollipop", Generators.lollipop ~rng:r ~clique:8 ~tail:12);
    ("two", Generators.path ~rng:r 2);
    ("single", Generators.path ~rng:r 1);
  ]

(* The offline oracle for the winner: the node with the largest wave key,
   computed without running the protocol. *)
let max_key_node n =
  let best = ref 0 in
  for v = 1 to n - 1 do
    if Leader.key ~n v > Leader.key ~n !best then best := v
  done;
  !best

let check_elected name g (r : Leader.result) =
  Alcotest.(check int) (name ^ " leader is the max-key node") (max_key_node (Graph.n g))
    r.leader;
  Kdom_congest.Oracle.expect_ok (name ^ " BFS tree")
    (Kdom_congest.Oracle.bfs_tree g ~root:r.leader ~parent:r.parent ~depth:r.depth)

let test_elects_max_key () =
  List.iter (fun (name, g) -> check_elected name g (Leader.elect g)) (graphs 1)

let test_key () =
  List.iter
    (fun n ->
      let keys = Array.init n (Leader.key ~n) in
      let b = ref 0 in
      while 1 lsl !b < n do incr b done;
      Array.iteri
        (fun v k ->
          Alcotest.(check int) "low bits are the id" v (k land ((1 lsl !b) - 1));
          Alcotest.(check bool) "2b bits wide" true (k < 1 lsl (2 * !b) || n = 1))
        keys;
      Alcotest.(check int) "keys are unique" n
        (List.length (List.sort_uniq compare (Array.to_list keys))))
    [ 1; 2; 3; 100; 1024; 1025 ];
  Alcotest.check_raises "key out of range" (Invalid_argument "Leader.key: node out of range")
    (fun () -> ignore (Leader.key ~n:4 4))

let test_empty_graph () =
  Alcotest.check_raises "empty graph" (Invalid_argument "Leader.elect: empty graph")
    (fun () -> ignore (Leader.elect (Graph.of_edges ~n:0 [])))

let test_tree_is_bfs () =
  List.iter
    (fun (name, g) ->
      let r = Leader.elect g in
      let reference = Traversal.bfs g r.leader in
      Alcotest.(check (array int)) (name ^ " BFS depths from leader") reference.dist
        r.depth;
      Array.iteri
        (fun v p ->
          if v = r.leader then Alcotest.(check int) (name ^ " leader parent") (-1) p
          else begin
            Alcotest.(check bool) (name ^ " parent adjacent") true
              (Option.is_some (Graph.find_edge g v p));
            Alcotest.(check int) (name ^ " parent one closer") (r.depth.(v) - 1)
              r.depth.(p)
          end)
        r.parent)
    (graphs 2)

let test_round_bound () =
  List.iter
    (fun (name, g) ->
      let r = Leader.elect g in
      let diam = Traversal.diameter g in
      Alcotest.(check bool)
        (Printf.sprintf "%s rounds %d <= %d" name r.stats.rounds
           (Leader.round_bound ~diam))
        true
        (r.stats.rounds <= Leader.round_bound ~diam))
    (graphs 3)

let test_feeds_fast_mst () =
  let g = Generators.gnp_connected ~rng:(Rng.create 4) ~n:120 ~p:0.05 in
  let elected = Leader.elect g in
  let mst = Fast_mst.run ~root:elected.leader g in
  Alcotest.(check bool) "MST correct with elected root" true
    (Mst.same_edge_set mst.mst (Mst.kruskal g))

let test_run_elected () =
  List.iter
    (fun seed ->
      let g = Generators.gnp_connected ~rng:(Rng.create seed) ~n:100 ~p:0.06 in
      let r = Fast_mst.run_elected g in
      Alcotest.(check bool) "self-contained FastMST correct" true
        (Mst.same_edge_set r.mst (Mst.kruskal g));
      Alcotest.(check int) "no stalls" 0 r.pipeline.stalls;
      (* the election charge appears in the ledger *)
      Alcotest.(check bool) "election charged" true
        (List.mem_assoc "Leader election + BFS tree" (Ledger.entries r.ledger)))
    [ 5; 6; 7 ]

(* Outputs of the keyed-wave election, recorded after each leader matched
   the offline max-key oracle and its tree passed [Oracle.bfs_tree]: the
   engine and the reference simulator must both reproduce the leader, the
   BFS tree and the run statistics exactly.  Parent and depth arrays are
   pinned by the MD5 of their decimal rendering. *)
type pin = {
  p_name : string;
  p_graph : unit -> Graph.t;
  p_leader : int;
  p_parent : string;
  p_depth : string;
  p_rounds : int;
  p_messages : int;
  p_inflight : int;
}

let md5_ints a =
  Digest.to_hex
    (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int a))))

let pins =
  [
    {
      p_name = "grid 9x9";
      p_graph = (fun () -> Generators.grid ~rng:(Rng.create 11) ~rows:9 ~cols:9);
      p_leader = 77;
      p_parent = "99dc6b2eededf29f5cfc1004c9af4e69";
      p_depth = "5e08f04b84ae1e52915158d989be3b30";
      p_rounds = 41;
      p_messages = 1319;
      p_inflight = 288;
    };
    {
      p_name = "rgg 150";
      p_graph =
        (fun () -> Generators.random_geometric ~rng:(Rng.create 12) ~n:150 ~radius:0.15);
      p_leader = 77;
      p_parent = "d125e8916853f6ea66c955a474551fe4";
      p_depth = "38fdd32e93a33d5d5f9ff2f089548203";
      p_rounds = 32;
      p_messages = 5940;
      p_inflight = 1374;
    };
    {
      p_name = "pa 200";
      p_graph =
        (fun () -> Generators.preferential_attachment ~rng:(Rng.create 13) ~n:200 ~m:2);
      p_leader = 77;
      p_parent = "f46d88be4892f7a40200d1436baa6639";
      p_depth = "ceb3d1d8340a1744e4637e642ae20f40";
      p_rounds = 20;
      p_messages = 3656;
      p_inflight = 794;
    };
    {
      p_name = "gnp 120";
      p_graph = (fun () -> Generators.gnp_connected ~rng:(Rng.create 14) ~n:120 ~p:0.05);
      p_leader = 77;
      p_parent = "ec7bc57ac2ca376d47bf99f0332f3100";
      p_depth = "2edeb8783734fb97907a0782b49c62ec";
      p_rounds = 17;
      p_messages = 2658;
      p_inflight = 718;
    };
    {
      p_name = "random tree 150";
      p_graph = (fun () -> Generators.random_tree ~rng:(Rng.create 15) 150);
      p_leader = 77;
      p_parent = "eac0facba75c8b92054ed1d70791dcc7";
      p_depth = "c31dd8ceb0a20ab803c3b0a8b5199802";
      p_rounds = 86;
      p_messages = 1942;
      p_inflight = 298;
    };
    {
      p_name = "path 60";
      p_graph = (fun () -> Generators.path ~rng:(Rng.create 16) 60);
      p_leader = 16;
      p_parent = "535cdf8185a79c1a3f8fff72d91a65f5";
      p_depth = "61ee37acb4145507a1d796cbd7b08ca5";
      p_rounds = 131;
      p_messages = 649;
      p_inflight = 118;
    };
  ]

let check_pin what p (r : Leader.result) =
  let name s = Printf.sprintf "%s %s: %s" p.p_name what s in
  Alcotest.(check int) (name "leader") p.p_leader r.leader;
  Alcotest.(check string) (name "parent") p.p_parent (md5_ints r.parent);
  Alcotest.(check string) (name "depth") p.p_depth (md5_ints r.depth);
  Alcotest.(check int) (name "rounds") p.p_rounds r.stats.rounds;
  Alcotest.(check int) (name "messages") p.p_messages r.stats.messages;
  Alcotest.(check int) (name "max_inflight") p.p_inflight r.stats.max_inflight

let test_pinned () =
  List.iter
    (fun p ->
      let g = p.p_graph () in
      let r = Leader.elect g in
      check_elected p.p_name g r;
      check_pin "elect" p r;
      (* the same node program under the reference simulator *)
      let states, stats =
        Kdom_congest.Runtime.run_reference ~max_words:Leader.max_words g
          (Leader.algorithm g)
      in
      check_pin "reference" p (Leader.result_of_states states stats))
    pins

(* O(m log n) messages in expectation: a wave passes a node only if no
   origin with a larger key is closer.  The bound is asserted at three sizes
   per family; rounds are checked against [round_bound] at the leader's
   eccentricity, a lower bound on the diameter, so the check is stricter
   than [round_bound ~diam]. *)
let test_message_bound () =
  let families =
    [
      ( "grid",
        fun n ->
          let side = int_of_float (Float.round (sqrt (float n))) in
          Generators.grid ~rng:(Rng.create n) ~rows:side ~cols:side );
      ( "rgg",
        fun n ->
          Generators.random_geometric ~rng:(Rng.create n) ~n
            ~radius:(sqrt (12.0 /. (Float.pi *. float n))) );
      ("pa", fun n -> Generators.preferential_attachment ~rng:(Rng.create n) ~n ~m:2);
    ]
  in
  let cases =
    List.concat_map
      (fun (fam, mk) ->
        List.map (fun n -> (Printf.sprintf "%s %d" fam n, mk n)) [ 400; 2_500; 10_000 ])
      families
    @ [ ("path 2500", Generators.path ~rng:(Rng.create 2) 2_500) ]
  in
  List.iter
    (fun (name, g) ->
      let r = Leader.elect g in
      check_elected name g r;
      let n = Graph.n g and m = Graph.m g in
      let bound = 3.0 *. float m *. log (float n) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d messages <= 3 m ln n = %.0f" name r.stats.messages bound)
        true
        (float r.stats.messages <= bound);
      let ecc = Array.fold_left max 0 r.depth in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d rounds <= round_bound ~diam:%d" name r.stats.rounds ecc)
        true
        (r.stats.rounds <= Leader.round_bound ~diam:ecc))
    cases

(* Regression guard: ordering waves by raw id sent 3,979,998 messages on
   the row-major 100x100 grid. *)
let test_grid_regression () =
  let g = Generators.grid ~rng:(Rng.create 1) ~rows:100 ~cols:100 in
  let r = Leader.elect g in
  Alcotest.(check bool)
    (Printf.sprintf "%d messages <= 400k" r.stats.messages)
    true
    (r.stats.messages <= 400_000)

let prop_leader =
  QCheck2.Test.make ~name:"leader election on random graphs" ~count:50
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 2 60))
    (fun (seed, n) ->
      let g = Generators.gnp_connected ~rng:(Rng.create seed) ~n ~p:0.15 in
      let r = Leader.elect g in
      r.leader = max_key_node n
      && Kdom_congest.Oracle.bfs_tree g ~root:r.leader ~parent:r.parent ~depth:r.depth = []
      && r.stats.rounds <= Leader.round_bound ~diam:(Traversal.diameter g))

let () =
  Alcotest.run "leader"
    [
      ( "election",
        [
          Alcotest.test_case "elects the maximum key" `Quick test_elects_max_key;
          Alcotest.test_case "keys are unique and 2b bits" `Quick test_key;
          Alcotest.test_case "empty graph is rejected" `Quick test_empty_graph;
          Alcotest.test_case "O(m log n) messages" `Quick test_message_bound;
          Alcotest.test_case "100x100 grid under 400k messages" `Quick
            test_grid_regression;
          Alcotest.test_case "produces a BFS tree" `Quick test_tree_is_bfs;
          Alcotest.test_case "O(Diam) rounds" `Quick test_round_bound;
          Alcotest.test_case "feeds FastMST" `Quick test_feeds_fast_mst;
          Alcotest.test_case "self-contained run_elected" `Quick test_run_elected;
          Alcotest.test_case "pinned outputs" `Quick test_pinned;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_leader ]);
    ]
