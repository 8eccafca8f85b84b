(* Tests for the CONGEST runtime itself: delivery semantics, constraint
   enforcement (one message per edge per round, bounded payloads, no
   messages to halted nodes), statistics, and the supporting Ledger and
   Cluster utilities. *)

open Kdom_graph
open Kdom_congest
module S = Engine.Sink

let path3 () = Graph.of_edges ~n:3 [ (0, 1, 1); (1, 2, 2) ]

(* A trivial token-passing algorithm: node 0 sends a token that walks to
   the end of the path; every node halts after seeing it. *)
type token_state = { pos : int; neighbors : int list; seen : bool; halted : bool }

let token_algorithm : token_state Engine.ealgorithm =
  {
    einit =
      (fun g v ->
        {
          pos = v;
          neighbors = Array.to_list (Array.map fst (Graph.neighbors g v));
          seen = false;
          halted = false;
        });
    ehalted = (fun st -> st.halted);
    estep =
      (fun _g ~round ~node st inbox em ->
        if node = 0 && round = 0 then begin
          Engine.Emit.frame1 em ~dst:1 42;
          { st with seen = true; halted = true }
        end
        else
          match Engine.Inbox.length inbox with
          | 1 ->
            assert (Codec.get (Engine.Inbox.read inbox 0) = 42);
            List.iter
              (fun u -> if u > node then Engine.Emit.frame1 em ~dst:u 42)
              st.neighbors;
            { st with seen = true; halted = true }
          | 0 -> st
          | _ -> assert false);
    ewake = Engine.always;
  }

(* The same walk with an honest hint: a node acts only when the token
   arrives, so the sparse scheduler should step O(1) nodes per round. *)
let sparse_token : token_state Engine.ealgorithm =
  { token_algorithm with ewake = (fun _ -> Engine.OnMessage) }

let test_delivery_and_stats () =
  let g = path3 () in
  let states, stats = Runtime.run g token_algorithm in
  Array.iter (fun st -> Alcotest.(check bool) "token seen" true st.seen) states;
  Alcotest.(check int) "two messages" 2 stats.messages;
  Alcotest.(check int) "three rounds" 3 stats.rounds;
  Alcotest.(check int) "one in flight at peak" 1 stats.max_inflight

let fixed_step out_of estep =
  {
    Engine.einit = (fun _ _ -> 0);
    ehalted = (fun r -> r >= out_of);
    estep;
    ewake = Engine.always;
  }

let test_rejects_double_send () =
  let g = path3 () in
  let algo =
    fixed_step 1 (fun _g ~round:_ ~node st _inbox em ->
        if node = 0 then begin
          Engine.Emit.frame1 em ~dst:1 1;
          Engine.Emit.frame1 em ~dst:1 2;
          1
        end
        else max st 1)
  in
  Alcotest.check_raises "double send"
    (Engine.Congestion_violation "round 0: node 0 sent twice over edge to 1")
    (fun () -> ignore (Runtime.run g algo))

let test_rejects_non_neighbor () =
  let g = path3 () in
  let algo =
    fixed_step 1 (fun _g ~round:_ ~node st _inbox em ->
        if node = 0 then begin
          Engine.Emit.frame1 em ~dst:2 1;
          1
        end
        else max st 1)
  in
  Alcotest.check_raises "non neighbor"
    (Engine.Congestion_violation "round 0: node 0 sent to non-neighbor 2")
    (fun () -> ignore (Runtime.run g algo))

let test_rejects_oversized_payload () =
  let g = path3 () in
  let algo =
    fixed_step 1 (fun _g ~round:_ ~node st _inbox em ->
        if node = 0 then begin
          Engine.Emit.send em ~dst:1 (fun w ->
              for _ = 1 to 9 do
                Codec.put w 0
              done);
          1
        end
        else max st 1)
  in
  (* the budget is enforced at each put: the fifth word is the violation *)
  Alcotest.check_raises "payload too big"
    (Engine.Congestion_violation "round 0: node 0 payload of 5 words exceeds 4")
    (fun () -> ignore (Runtime.run g algo))

let test_rejects_message_to_halted () =
  let g = path3 () in
  (* node 2 halts immediately; node 1 sends to it on round 1 *)
  let algo =
    {
      Engine.einit = (fun _ v -> if v = 2 then 2 else 0);
      ehalted = (fun st -> st >= 2);
      estep =
        (fun _g ~round ~node st _inbox em ->
          if node = 1 && round = 1 then begin
            Engine.Emit.frame1 em ~dst:2 7;
            2
          end
          else if round >= 3 then 2
          else st);
      ewake = Engine.always;
    }
  in
  Alcotest.check_raises "halted receiver"
    (Engine.Congestion_violation "round 2: halted node 2 received a message")
    (fun () -> ignore (Runtime.run g algo))

let test_round_limit () =
  let g = path3 () in
  (* never halts *)
  let algo =
    {
      Engine.einit = (fun _ _ -> 0);
      ehalted = (fun _ -> false);
      estep = (fun _g ~round:_ ~node:_ st _ _ -> st);
      ewake = Engine.always;
    }
  in
  Alcotest.check_raises "round limit" (Engine.Round_limit_exceeded 11) (fun () ->
      ignore (Runtime.run ~max_rounds:10 g algo))

let test_inbox_sender_order () =
  (* a star where all leaves message the hub in one round; inbox must be
     ordered by sender id *)
  let g = Graph.of_edges ~n:5 [ (0, 1, 1); (0, 2, 2); (0, 3, 3); (0, 4, 4) ] in
  let received = ref [] in
  let algo =
    {
      Engine.einit = (fun _ _ -> 0);
      ehalted = (fun st -> st >= 1);
      estep =
        (fun _g ~round ~node st inbox em ->
          if round = 0 && node > 0 then begin
            Engine.Emit.frame1 em ~dst:0 node;
            1
          end
          else if node = 0 && round = 1 then begin
            received := List.init (Engine.Inbox.length inbox) (Engine.Inbox.sender inbox);
            1
          end
          else if round >= 1 then 1
          else st);
      ewake = Engine.always;
    }
  in
  ignore (Runtime.run g algo);
  Alcotest.(check (list int)) "sender order" [ 1; 2; 3; 4 ] !received

(* ------------------------------------------------------------------ *)
(* Sparse scheduler and engine edge cases *)

let test_sparse_token_frontier () =
  let g =
    Graph.of_edges ~n:6 [ (0, 1, 1); (1, 2, 2); (2, 3, 3); (3, 4, 4); (4, 5, 5) ]
  in
  let sink, rounds = Engine.Sink.counters () in
  let states, stats = Runtime.run ~sink g sparse_token in
  (* bit-identical to the dense schedule (every wake hint Always) *)
  let dstates, dstats =
    Runtime.run g { sparse_token with Engine.ewake = Engine.always }
  in
  Alcotest.(check bool) "states match dense run" true (states = dstates);
  Alcotest.(check bool) "stats match dense run" true (stats = dstats);
  List.iter
    (fun (ri : Engine.Sink.round_info) ->
      if ri.round >= 1 then begin
        Alcotest.(check int)
          (Printf.sprintf "round %d steps only the token holder" ri.round)
          1 ri.counts.(S.stepped);
        Alcotest.(check int)
          (Printf.sprintf "round %d skips the rest of the live set" ri.round)
          (5 - ri.round) ri.counts.(S.skipped);
        Alcotest.(check int) "no timers in a message-driven walk" 0
          ri.counts.(S.woken)
      end
      else begin
        (* the init round steps every node and skips none *)
        Alcotest.(check int) "init round steps all" 6 ri.counts.(S.stepped);
        Alcotest.(check int) "init round skips none" 0 ri.counts.(S.skipped)
      end)
    (rounds ())

let test_wake_timer () =
  (* one isolated-by-silence node: sends nothing, wakes itself at round 3
     via an [At] hint and only then halts *)
  let g = Graph.of_edges ~n:2 [ (0, 1, 1) ] in
  let algo : int Engine.ealgorithm =
    {
      einit = (fun _ _ -> 0);
      ehalted = (fun st -> st >= 1);
      estep = (fun _g ~round ~node:_ st _ _ -> if round >= 3 then 1 else st);
      ewake = (fun _ -> Engine.At 3);
    }
  in
  let sink, rounds = Engine.Sink.counters () in
  let _states, stats = Runtime.run ~sink g algo in
  Alcotest.(check int) "four rounds" 4 stats.rounds;
  List.iter
    (fun (ri : Engine.Sink.round_info) ->
      match ri.round with
      | 0 -> Alcotest.(check int) "init round steps all" 2 ri.counts.(S.stepped)
      | 1 | 2 ->
        Alcotest.(check int) "quiet rounds step nobody" 0 ri.counts.(S.stepped);
        Alcotest.(check int) "quiet rounds skip the live set" 2 ri.counts.(S.skipped)
      | 3 ->
        Alcotest.(check int) "timer round steps both" 2 ri.counts.(S.stepped);
        Alcotest.(check int) "both wake by timer" 2 ri.counts.(S.woken)
      | r -> Alcotest.failf "unexpected round %d" r)
    (rounds ())

let test_engine_empty_and_singleton () =
  let algo = fixed_step 1 (fun _g ~round:_ ~node:_ st _ _ -> max st 1) in
  let g0 = Graph.of_edges ~n:0 [] in
  let states0, stats0 = Runtime.run g0 algo in
  Alcotest.(check int) "n=0: no states" 0 (Array.length states0);
  Alcotest.(check int) "n=0: no rounds" 0 stats0.rounds;
  let g1 = Graph.of_edges ~n:1 [] in
  let states1, stats1 = Runtime.run g1 algo in
  Alcotest.(check int) "n=1: one state" 1 (Array.length states1);
  Alcotest.(check int) "n=1: one round" 1 stats1.rounds;
  Alcotest.(check int) "n=1: no messages" 0 stats1.messages

let test_find_port_bounds () =
  let e = Engine.create (path3 ()) in
  Alcotest.(check int) "port count" 4 (Engine.port_count e);
  Alcotest.(check bool) "neighbor found" true (Engine.find_port e ~src:0 ~dst:1 >= 0);
  Alcotest.(check bool) "reverse edge found" true (Engine.find_port e ~src:1 ~dst:0 >= 0);
  Alcotest.(check int) "non-neighbor" (-1) (Engine.find_port e ~src:0 ~dst:2);
  Alcotest.(check int) "self" (-1) (Engine.find_port e ~src:1 ~dst:1);
  Alcotest.(check int) "dst out of range" (-1) (Engine.find_port e ~src:0 ~dst:7);
  Alcotest.(check int) "negative dst" (-1) (Engine.find_port e ~src:0 ~dst:(-3));
  Alcotest.(check int) "src out of range" (-1) (Engine.find_port e ~src:9 ~dst:0);
  Alcotest.(check int) "negative src" (-1) (Engine.find_port e ~src:(-1) ~dst:0);
  (* every slot is distinct and recovered by search *)
  let seen = Hashtbl.create 8 in
  for v = 0 to 2 do
    Engine.iter_neighbors e v (fun u ->
        let s = Engine.find_port e ~src:v ~dst:u in
        Alcotest.(check bool) "slot in range" true (s >= 0 && s < Engine.port_count e);
        Alcotest.(check bool) "slot unique" false (Hashtbl.mem seen s);
        Hashtbl.replace seen s ())
  done;
  Alcotest.(check int) "all slots covered" (Engine.port_count e) (Hashtbl.length seen)

(* ------------------------------------------------------------------ *)
(* Ledger *)

let test_ledger () =
  let l = Kdom.Ledger.create () in
  Kdom.Ledger.charge l "a" 5;
  Kdom.Ledger.charge l "b" 3;
  Kdom.Ledger.charge l "a" 2;
  Alcotest.(check int) "total" 10 (Kdom.Ledger.total l);
  Alcotest.(check (list (pair string int))) "entries merged in order"
    [ ("a", 7); ("b", 3) ]
    (Kdom.Ledger.entries l);
  let l2 = Kdom.Ledger.create () in
  Kdom.Ledger.charge l2 "x" 4;
  let l3 = Kdom.Ledger.create () in
  Kdom.Ledger.charge l3 "y" 9;
  Kdom.Ledger.merge_max l [ l2; l3 ] "parallel";
  Alcotest.(check int) "merge max" 19 (Kdom.Ledger.total l);
  Alcotest.check_raises "negative" (Invalid_argument "Ledger.charge: negative rounds")
    (fun () -> Kdom.Ledger.charge l "z" (-1))

(* ------------------------------------------------------------------ *)
(* Cluster *)

let test_cluster_checks () =
  let g = Generators.path ~rng:(Rng.create 1) 6 in
  let ok : Kdom.Cluster.t list =
    [ { center = 1; members = [ 0; 1; 2 ] }; { center = 4; members = [ 3; 4; 5 ] } ]
  in
  let p = Kdom.Cluster.partition g ok in
  Alcotest.(check int) "max radius" 1 (Kdom.Cluster.max_radius p);
  Alcotest.(check int) "min size" 3 (Kdom.Cluster.min_size p);
  Alcotest.(check (list int)) "centers" [ 1; 4 ] (Kdom.Cluster.centers p);
  let q, witnesses = Kdom.Cluster.quotient_graph p in
  Alcotest.(check int) "quotient nodes" 2 (Graph.n q);
  Alcotest.(check int) "quotient edges" 1 (Graph.m q);
  Alcotest.(check (list (pair int int))) "witness" [ (2, 3) ] witnesses;
  Alcotest.check_raises "overlap"
    (Invalid_argument "Cluster.partition: clusters overlap") (fun () ->
      ignore
        (Kdom.Cluster.partition g
           [
             { center = 1; members = [ 0; 1; 2 ] };
             { center = 4; members = [ 2; 3; 4; 5 ] };
           ]));
  Alcotest.check_raises "coverage"
    (Invalid_argument "Cluster.partition: clusters do not cover all nodes") (fun () ->
      ignore (Kdom.Cluster.partition g [ { center = 1; members = [ 0; 1; 2 ] } ]));
  (* disconnected cluster radius *)
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Cluster.radius: induced subgraph disconnected") (fun () ->
      ignore (Kdom.Cluster.radius g { center = 0; members = [ 0; 1; 4 ] }))

let test_cluster_induced () =
  let g = Generators.cycle ~rng:(Rng.create 2) 6 in
  let sub, to_host = Kdom.Cluster.induced g [ 1; 2; 3 ] in
  Alcotest.(check int) "induced n" 3 (Graph.n sub);
  Alcotest.(check int) "induced m" 2 (Graph.m sub);
  Alcotest.(check (array int)) "mapping" [| 1; 2; 3 |] to_host;
  (* weights preserved *)
  Array.iter
    (fun (e : Graph.edge) ->
      let hu = to_host.(e.u) and hv = to_host.(e.v) in
      match Graph.find_edge g hu hv with
      | Some host_e -> Alcotest.(check int) "weight kept" host_e.w e.w
      | None -> Alcotest.fail "edge not in host")
    (Graph.edges sub)

(* ------------------------------------------------------------------ *)
(* Forest helpers *)

let test_forest_quotient () =
  let g = Generators.path ~rng:(Rng.create 3) 6 in
  let clusters =
    [|
      Kdom.Forest.make g ~center:0 [ 0; 1 ];
      Kdom.Forest.make g ~center:2 [ 2; 3 ];
      Kdom.Forest.make g ~center:5 [ 5 ];
    |]
  in
  (* node 4 deliberately unowned: 2-3 and 5 are then non-adjacent *)
  let q = Kdom.Forest.quotient g clusters in
  Alcotest.(check int) "quotient size" 3 (Graph.n q);
  Alcotest.(check int) "quotient edges" 1 (Graph.m q);
  Alcotest.(check (list int)) "isolated" [ 2 ] (Kdom.Forest.isolated q)

let test_forest_merge () =
  let g = Generators.path ~rng:(Rng.create 4) 5 in
  let a = Kdom.Forest.make g ~center:1 [ 0; 1; 2 ] in
  let b = Kdom.Forest.make g ~center:3 [ 3; 4 ] in
  let m = Kdom.Forest.merge_into g ~target:a b in
  Alcotest.(check int) "center kept" 1 m.center;
  Alcotest.(check int) "size" 5 (Kdom.Forest.size m);
  Alcotest.(check int) "radius from center" 3 m.radius

let () =
  Alcotest.run "congest runtime"
    [
      ( "runtime",
        [
          Alcotest.test_case "delivery and stats" `Quick test_delivery_and_stats;
          Alcotest.test_case "rejects double send" `Quick test_rejects_double_send;
          Alcotest.test_case "rejects non-neighbor send" `Quick test_rejects_non_neighbor;
          Alcotest.test_case "rejects oversized payload" `Quick test_rejects_oversized_payload;
          Alcotest.test_case "rejects message to halted node" `Quick
            test_rejects_message_to_halted;
          Alcotest.test_case "round limit" `Quick test_round_limit;
          Alcotest.test_case "inbox sender order" `Quick test_inbox_sender_order;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "sparse token frontier" `Quick test_sparse_token_frontier;
          Alcotest.test_case "wake timer buckets" `Quick test_wake_timer;
          Alcotest.test_case "n=0 and n=1 engines" `Quick test_engine_empty_and_singleton;
          Alcotest.test_case "find_port bounds" `Quick test_find_port_bounds;
        ] );
      ("ledger", [ Alcotest.test_case "charges and merges" `Quick test_ledger ]);
      ( "cluster",
        [
          Alcotest.test_case "partition checks" `Quick test_cluster_checks;
          Alcotest.test_case "induced subgraph" `Quick test_cluster_induced;
        ] );
      ( "forest",
        [
          Alcotest.test_case "quotient and isolated" `Quick test_forest_quotient;
          Alcotest.test_case "merge_into" `Quick test_forest_merge;
        ] );
    ]
