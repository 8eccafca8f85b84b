(* Robustness: the paper's algorithms on a lossy, crashy network.
   FastDOM's census stage and SimpleMST run to quiescence under the
   reliable-delivery layer while the fault injector drops, duplicates and
   reorders frames and crash-restarts nodes — and the final states are
   bit-identical to the synchronous execution (DESIGN.md §7).

     dune exec examples/fault_demo.exe
*)

open Kdom_graph
open Kdom
open Kdom_congest

let pf = Format.printf

let show name (frep : Async.fault_report) =
  pf
    "  %-8s pulses %3d | alg %6d sync %6d | frames %7d rtx %5d dropped %5d \
     dup %4d crash-dropped %3d@."
    name frep.report.pulses frep.report.alg_messages frep.report.sync_messages
    frep.frames frep.retransmits frep.dropped frep.duplicated frep.crash_dropped

let () =
  let n = 80 in
  let t = Generators.random_tree ~rng:(Rng.create 5) n in
  let g = Generators.gnp_connected ~rng:(Rng.create 6) ~n ~p:0.06 in
  let k = 2 in

  (* A hostile regime: 20% loss, 10% duplication, reordering, two
     crash-recovery windows. *)
  let faults =
    Faults.lossy ~drop:0.2 ~duplicate:0.1
      ~crashes:
        [
          { Faults.node = 3; at = 0.0; recover = Some 4.0 };
          { Faults.node = 11; at = 2.0; recover = Some 10.0 };
        ]
      ~seed:9 ()
  in
  pf "fault regime: drop 0.2, dup 0.1, reorder, crashes on nodes 3 and 11@.@.";

  (* 1. FastDOM's census stage (DiamDOM) on a random tree. *)
  let info, _ = Bfs_tree.run t ~root:0 in
  let mk () = Diam_dom.census_algorithm info ~k in
  let max_words = Diam_dom.census_max_words in
  let sync_states, _ = Runtime.run ~max_words t (mk ()) in
  let states, frep =
    Async.run_reliable ~rng:(Rng.create 1) ~faults ~max_words t (mk ())
  in
  pf "DiamDOM census on a %d-node tree (k = %d):@." n k;
  show "census" frep;
  pf "  bit-identical to the synchronous run: %b@."
    (states = sync_states);
  let centers = ref [] in
  Array.iteri
    (fun v b -> if b then centers := v :: !centers)
    (Diam_dom.dominating_of_states states);
  pf "  oracle (k-domination + size bound): %s@.@."
    (Oracle.describe
       (Oracle.k_domination t ~k !centers
       @ Oracle.size_within ~n ~k ~ceil:true !centers));

  (* 2. SimpleMST on a connected G(n,p). *)
  let mk () = Simple_mst_congest.algorithm g ~k in
  let max_words = Simple_mst_congest.max_words in
  let sync_states, _ = Runtime.run ~max_words g (mk ()) in
  let states, frep =
    Async.run_reliable ~rng:(Rng.create 2) ~faults ~max_words g (mk ())
  in
  pf "SimpleMST on G(%d, m=%d) (k = %d):@." n (Graph.m g) k;
  show "smc" frep;
  pf "  bit-identical to the synchronous run: %b@." (states = sync_states);
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
  pf "  %d fragments; oracle (partition + MST subforest): %s@.@."
    (List.length frags)
    (Oracle.describe
       (Oracle.partition g ~fragment_of ~min_size:(min (k + 1) n)
       @ Oracle.mst_subforest g ids));

  (* 3. The same network with no faults: the link layer is invisible —
     zero retransmissions, exactly 2 frames per logical message. *)
  let _, clean =
    Async.run_reliable ~rng:(Rng.create 3) ~max_words g (mk ())
  in
  pf "same run, fault-free network:@.";
  show "smc" clean;
  pf "  retransmits = %d (ack timeout 4x max_delay never fires)@."
    clean.retransmits;

  (* 4. Permanent churn: crash the busiest dominator mid-run and let the
     self-healing layer (heartbeats, leases, reattach, takeover) restore
     the k-domination invariant on the survivors (DESIGN.md §10). *)
  let plan =
    Cluster.plan_of_partition (Dom_partition.partition t (Dom_partition.run t ~k))
  in
  let count = Array.make n 0 in
  Array.iter (fun d -> count.(d) <- count.(d) + 1) plan.dominator;
  let dom = ref 0 in
  Array.iteri (fun v c -> if c > count.(!dom) then dom := v) count;
  let crash_at = 7 in
  let beta = k + 1 and lease = 2 in
  let cfg =
    {
      Repair.plan;
      beta;
      lease;
      dmax = Repair.default_dmax plan;
      horizon = 160;
    }
  in
  let e = Engine.create t in
  let churn =
    Engine.Churn.compile e [ Engine.Churn.Crash { node = !dom; at = crash_at } ]
  in
  let states, stats = Repair.run ~churn e cfg in
  let rep = Repair.decode states in
  pf "@.self-healing: dominator %d (cluster of %d) crashes at round %d:@."
    !dom count.(!dom) crash_at;
  pf
    "  %d rounds | hb frames %d | repair frames %d | suspicions %d | \
     detection %d rounds | repair %d rounds@."
    stats.Engine.rounds rep.hb_frames rep.repair_frames rep.suspicions
    (rep.first_suspect - crash_at)
    (max 0 (rep.last_repair - rep.first_suspect));
  let alive = Engine.Churn.final_alive churn in
  pf "  oracle (eventual k-domination on the survivors): %s@."
    (Oracle.describe
       (Oracle.eventual_k_domination t ~alive
          ~dead_edges:(Engine.Churn.final_edges_down churn)
          ~centers:(Repair.live_centers rep alive) ~bound:n));
  (* the distributed takeover vs the centralized DiamDOM re-run on each
     severed fragment of the dead cluster *)
  let members =
    List.filter (fun v -> v <> !dom)
      (List.init n (fun v -> if plan.dominator.(v) = !dom then v else -1)
      |> List.filter (fun v -> v >= 0))
  in
  let in_cluster = Array.make n false in
  List.iter (fun v -> in_cluster.(v) <- true) members;
  let seen = Array.make n false in
  let fragments = ref [] in
  List.iter
    (fun v0 ->
      if not seen.(v0) then begin
        let frag = ref [] in
        let q = Queue.create () in
        seen.(v0) <- true;
        Queue.add v0 q;
        while not (Queue.is_empty q) do
          let v = Queue.pop q in
          frag := v :: !frag;
          Array.iter
            (fun (u, _) ->
              if in_cluster.(u) && not seen.(u) then begin
                seen.(u) <- true;
                Queue.add u q
              end)
            (Graph.neighbors t v)
        done;
        fragments := !frag :: !fragments
      end)
    members;
  let central =
    List.fold_left
      (fun acc frag -> acc + List.length (Diam_dom.redominate t ~members:frag ~k))
      0 !fragments
  in
  let elected =
    List.length (List.filter (fun c -> List.mem c members) !centers)
  in
  pf
    "  dead cluster split into %d fragments; takeover elected %d dominators \
     (centralized DiamDOM re-run: %d)@."
    (List.length !fragments) elected central
