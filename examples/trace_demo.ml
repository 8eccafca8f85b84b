(* Tracing a message-level run through the engine's instrumentation sinks:
   per-round counters, per-node activity, and a JSONL event stream — the
   README's tracing example, runnable.

     dune exec examples/trace_demo.exe                  # summary tables
     dune exec examples/trace_demo.exe -- jsonl         # per-round JSONL
     dune exec examples/trace_demo.exe -- jsonl msgs    # + per-message records
     dune exec examples/trace_demo.exe -- spans         # span trace + metrics
     dune exec examples/trace_demo.exe -- spans chrome  # Perfetto-loadable JSON
*)

open Kdom_graph
open Kdom_congest

(* The span-level view (DESIGN.md §8): a composite run records one span per
   logical phase on a shared round clock; Metrics turns the trace into the
   paper's bounds as checkable quantities. *)
let spans () =
  let g = Generators.path ~rng:(Rng.create 7) 33 in
  let tr = Trace.create () in
  let r = Kdom.Diam_dom.run ~trace:tr g ~root:0 ~k:3 in
  if Array.exists (( = ) "chrome") Sys.argv then
    (* pipe to a file and load it at ui.perfetto.dev: the k+1 censuses
       pipeline on their own tracks, one round apart (Lemma 2.3) *)
    Trace.export_chrome tr stdout
  else begin
    let m = Metrics.report tr in
    assert (r.rounds <= Kdom.Diam_dom.round_bound ~diam:32 ~k:3);
    assert (Metrics.within_budget m);
    Format.printf "%a@." Metrics.pp m;
    Format.printf "(re-run with 'spans chrome' for the Perfetto view)@."
  end

(* BFS from node 0 with [sink] attached at the executor, cross-checked
   against the run: the round records' [delivered] counters sum to the
   message total, and the engine raises one message event — one JSONL
   [msg] record — per message. *)
let bfs g sink =
  let counters, rounds = Engine.Sink.counters () in
  let msgs = ref 0 in
  let count =
    {
      Engine.Sink.null with
      on_message = (fun ~round:_ ~src:_ ~dst:_ ~words:_ -> incr msgs);
    }
  in
  let _, stats =
    Runtime.run ~max_words:Kdom.Bfs_tree.max_words
      ~sink:(Engine.Sink.tee sink (Engine.Sink.tee counters count))
      g
      (Kdom.Bfs_tree.algorithm g ~root:0)
  in
  let rounds = rounds () in
  let delivered =
    List.fold_left
      (fun a (r : Engine.Sink.round_info) -> a + r.counts.(Engine.Sink.delivered))
      0 rounds
  in
  assert (delivered = stats.messages && !msgs = stats.messages);
  (stats, rounds)

let () =
  let g = Generators.grid ~rng:(Rng.create 7) ~rows:20 ~cols:20 in
  if Array.exists (( = ) "spans") Sys.argv then spans ()
  else if Array.exists (( = ) "jsonl") Sys.argv then
    let messages = Array.exists (( = ) "msgs") Sys.argv in
    ignore (bfs g (Engine.Sink.jsonl ~messages stdout))
  else begin
    let activity, sent, received = Engine.Sink.activity ~n:(Graph.n g) in
    let stats, rounds = bfs g activity in
    Format.printf "BFS on a 20x20 grid: %d rounds, %d messages@." stats.rounds
      stats.messages;
    Format.printf "@.%6s %9s %9s %9s %8s@." "round" "delivered" "receivers"
      "stepped" "sent";
    List.iter
      (fun (r : Engine.Sink.round_info) ->
        let c = Array.get r.counts in
        if r.round mod 5 = 0 || c Engine.Sink.delivered > 0 then
          Format.printf "%6d %9d %9d %9d %8d@." r.round
            (c Engine.Sink.delivered) (c Engine.Sink.receivers)
            (c Engine.Sink.stepped) (c Engine.Sink.sent))
      rounds;
    let busiest = ref 0 in
    Array.iteri (fun v s -> if s > sent.(!busiest) then busiest := v) sent;
    Format.printf "@.busiest node: %d (%d sent, %d received)@." !busiest
      sent.(!busiest) received.(!busiest)
  end
