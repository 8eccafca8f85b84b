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

let test_elects_max_id () =
  List.iter
    (fun (name, g) ->
      let r = Leader.elect g in
      Alcotest.(check int) (name ^ " leader is max id") (Graph.n g - 1) r.leader)
    (graphs 1)

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

(* Outputs of the list-shape implementation, recorded before the step was
   rewritten onto the Emit path: the port must reproduce the leader, the
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
      p_leader = 80;
      p_parent = "0a267719b2ea9694acb4041facda46e0";
      p_depth = "0fb3f5aa188df4c9dddb53fa340c1873";
      p_rounds = 50;
      p_messages = 2752;
      p_inflight = 288;
    };
    {
      p_name = "rgg 150";
      p_graph =
        (fun () -> Generators.random_geometric ~rng:(Rng.create 12) ~n:150 ~radius:0.15);
      p_leader = 149;
      p_parent = "1ba44f12d84c406882acf48640c24855";
      p_depth = "6e73445613c3a3cf13c1bd7d273b71aa";
      p_rounds = 29;
      p_messages = 5274;
      p_inflight = 1374;
    };
    {
      p_name = "pa 200";
      p_graph =
        (fun () -> Generators.preferential_attachment ~rng:(Rng.create 13) ~n:200 ~m:2);
      p_leader = 199;
      p_parent = "88d9ffd5b9e55c8c6549bd953a10c1f8";
      p_depth = "9779a65f02f59161962b05d46eb65e31";
      p_rounds = 17;
      p_messages = 3437;
      p_inflight = 794;
    };
    {
      p_name = "gnp 120";
      p_graph = (fun () -> Generators.gnp_connected ~rng:(Rng.create 14) ~n:120 ~p:0.05);
      p_leader = 119;
      p_parent = "5d195036f07722ffa89c31cfb7297787";
      p_depth = "76232018a61cb2c70bc206f8df6a8d95";
      p_rounds = 17;
      p_messages = 2748;
      p_inflight = 718;
    };
    {
      p_name = "random tree 150";
      p_graph = (fun () -> Generators.random_tree ~rng:(Rng.create 15) 150);
      p_leader = 149;
      p_parent = "d033bbc89eb5b360fa433ffec2193d0d";
      p_depth = "1e989e1cd066b24dbe48f078f560ee7a";
      p_rounds = 62;
      p_messages = 2108;
      p_inflight = 298;
    };
    {
      p_name = "path 60";
      p_graph = (fun () -> Generators.path ~rng:(Rng.create 16) 60);
      p_leader = 59;
      p_parent = "79f65074b65ce670165f6fdc2be6336b";
      p_depth = "06c7f140aa2e3eb22ebe2bdb7f4fba12";
      p_rounds = 179;
      p_messages = 3717;
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
      check_pin "elect" p (Leader.elect g);
      (* the derived list shape, through the compat adapter *)
      let states, stats =
        Kdom_congest.Engine.run ~max_words:Leader.max_words g (Leader.algorithm g)
      in
      check_pin "list shape" p (Leader.result_of_states states stats))
    pins

let prop_leader =
  QCheck2.Test.make ~name:"leader election on random graphs" ~count:50
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 2 60))
    (fun (seed, n) ->
      let g = Generators.gnp_connected ~rng:(Rng.create seed) ~n ~p:0.15 in
      let r = Leader.elect g in
      r.leader = n - 1
      && r.stats.rounds <= Leader.round_bound ~diam:(Traversal.diameter g))

let () =
  Alcotest.run "leader"
    [
      ( "election",
        [
          Alcotest.test_case "elects the maximum id" `Quick test_elects_max_id;
          Alcotest.test_case "produces a BFS tree" `Quick test_tree_is_bfs;
          Alcotest.test_case "O(Diam) rounds" `Quick test_round_bound;
          Alcotest.test_case "feeds FastMST" `Quick test_feeds_fast_mst;
          Alcotest.test_case "self-contained run_elected" `Quick test_run_elected;
          Alcotest.test_case "pinned outputs" `Quick test_pinned;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_leader ]);
    ]
