open Kdom_graph

let run ?max_rounds ?max_words ?sink ?guard ?corrupt ?domains ?partition g
    algo =
  Engine.exec_emit ?max_rounds ?max_words ?sink ?guard ?corrupt ?domains
    ?partition (Engine.create g) algo

(* ------------------------------------------------------------------ *)
(* The original list-based simulator, kept as the executable specification
   of the engine's semantics.  Every constraint check and its message, the
   round/timing convention and the stats must match [Engine.exec_emit]
   exactly; [test_engine_diff.ml] enforces this differentially on all
   eight message-level algorithms.  It ignores wake hints — it IS the
   dense schedule the sparse scheduler must be indistinguishable from.
   Nodes step through one {!Engine.recorder}, which turns each step's
   frames into the [(dst, payload)] list this simulator delivers. *)

let run_reference ?max_rounds ?max_words ?(sink = Engine.Sink.null) ?churn
    ?(guard = false) ?corrupt g (algo : _ Engine.ealgorithm) =
  let n = Graph.n g in
  let max_rounds =
    match max_rounds with Some r -> r | None -> Engine.default_max_rounds n
  in
  let max_words =
    match max_words with Some w -> w | None -> Engine.default_max_words n
  in
  (match churn with Some c -> Engine.Churn.reset c | None -> ());
  Option.iter Engine.Corrupt.arm corrupt;
  let guard = guard || corrupt <> None in
  (* Wire accounting matches the engine: a guarded frame carries one extra
     CRC wire word, charged to delivered bits like any other. *)
  let frame_wire p =
    Codec.measure p + if guard then Codec.guard_words else 0
  in
  let frame_bits p = Codec.word_bits * frame_wire p in
  (* Corruption decisions are keyed on the engine's out-port slot ids, so
     the reference needs the same CSR port map the engine builds.  The
     scratch holds one encoded guarded frame for garbling + verdict. *)
  let eport = match corrupt with Some _ -> Some (Engine.create g) | None -> None in
  let cscratch =
    match corrupt with
    | Some _ ->
      Bytes.create
        (2 * ((Codec.max_wire_words * max 1 max_words) + Codec.guard_words))
    | None -> Bytes.empty
  in
  let instrumented = sink != Engine.Sink.null in
  let step = Engine.recorder ~max_words g algo in
  let states = Array.init n (fun v -> algo.einit g v) in
  (* in_flight.(v) = messages to deliver to v next round, accumulated in
     reverse sender order. *)
  let in_flight : (int * Engine.payload) list array = Array.make n [] in
  let pending = ref 0 in
  let pending_words = ref 0 in
  let pending_bits = ref 0 in
  let messages = ref 0 in
  let max_inflight = ref 0 in
  let round = ref 0 in
  let node_crashed v =
    match churn with Some c -> Engine.Churn.crashed c v | None -> false
  in
  let node_dormant v =
    match churn with Some c -> Engine.Churn.dormant c v | None -> false
  in
  let all_halted () =
    !pending = 0
    &&
    let ok = ref true in
    for v = 0 to n - 1 do
      if not (algo.ehalted states.(v) || node_crashed v || node_dormant v) then
        ok := false
    done;
    !ok
  in
  let is_neighbor v u = Option.is_some (Graph.find_edge g v u) in
  while not (all_halted ()) do
    if !round > max_rounds then raise (Engine.Round_limit_exceeded !round);
    (* churn is applied before delivery, with the engine's semantics: a
       crash loses the frames in flight to the node, an edge going down
       loses the frame it was carrying *)
    let churn_dropped = ref 0 in
    let delta = ref Engine.Churn.no_delta in
    (match churn with
    | Some c ->
      delta := Engine.Churn.advance c ~round:!round;
      for v = 0 to n - 1 do
        if Engine.Churn.crashed c v then
          List.iter
            (fun (_, p) ->
              incr churn_dropped;
              decr pending;
              pending_words := !pending_words - Array.length p;
              pending_bits := !pending_bits - frame_bits p)
            in_flight.(v)
          |> fun () -> in_flight.(v) <- []
        else
          in_flight.(v) <-
            List.filter
              (fun (u, p) ->
                if Engine.Churn.edge_down c ~src:u ~dst:v then begin
                  incr churn_dropped;
                  decr pending;
                  pending_words := !pending_words - Array.length p;
                  pending_bits := !pending_bits - frame_bits p;
                  false
                end
                else true)
              in_flight.(v)
      done
    | None -> ());
    (* Wire corruption, applied at delivery like the engine's serial pass:
       every verdict is a pure (cseed, round, slot, lane) hash on the
       engine's out-port slot ids, so the two simulators corrupt — and
       drop, or deliver the same CRC-colliding garble — identically. *)
    let corrupt_dropped = ref 0 in
    (match (corrupt, eport) with
    | Some (cs : Engine.Corrupt.spec), Some ep ->
      let inten = Engine.Corrupt.intensity cs ~round:!round in
      let fthr = Engine.Corrupt.threshold (cs.Engine.Corrupt.flip *. inten) in
      let tthr =
        Engine.Corrupt.threshold (cs.Engine.Corrupt.truncate *. inten)
      in
      if fthr > 0 || tthr > 0 then begin
        let cseed = cs.Engine.Corrupt.cseed
        and burst = cs.Engine.Corrupt.burst in
        let tally = cs.Engine.Corrupt.tally in
        let round = !round in
        for v = 0 to n - 1 do
          in_flight.(v) <-
            List.filter_map
              (fun (u, p) ->
                let slot = Engine.find_port ep ~src:u ~dst:v in
                let wv = frame_wire p in
                let kill () =
                  incr corrupt_dropped;
                  decr pending;
                  pending_words := !pending_words - Array.length p;
                  pending_bits := !pending_bits - (Codec.word_bits * wv)
                in
                let h0 = Engine.Corrupt.decide ~cseed ~round ~slot ~lane:0 in
                if tthr > 0 && Engine.Corrupt.hit h0 tthr && wv > 1 then begin
                  tally.Engine.Corrupt.injected <-
                    tally.Engine.Corrupt.injected + 1;
                  tally.Engine.Corrupt.truncated <-
                    tally.Engine.Corrupt.truncated + 1;
                  kill ();
                  None
                end
                else if fthr > 0 then begin
                  let hitany = ref false in
                  for i = 0 to wv - 1 do
                    let h =
                      Engine.Corrupt.decide ~cseed ~round ~slot ~lane:(i + 1)
                    in
                    if Engine.Corrupt.hit h fthr then hitany := true
                  done;
                  if not !hitany then Some (u, p)
                  else begin
                    (* the decisions are byte-independent, so the frame is
                       encoded only once a flip actually lands *)
                    let wire = Codec.encode_guarded cscratch ~base:0 p in
                    for i = 0 to wv - 1 do
                      let h =
                        Engine.Corrupt.decide ~cseed ~round ~slot ~lane:(i + 1)
                      in
                      if Engine.Corrupt.hit h fthr then begin
                        let stop = min (i + burst - 1) (wv - 1) in
                        for jj = i to stop do
                          let hm =
                            if jj = i then h
                            else
                              Engine.Corrupt.decide ~cseed ~round ~slot
                                ~lane:(wv + 1 + jj)
                          in
                          let off = 2 * jj in
                          Bytes.set_uint16_le cscratch off
                            (Bytes.get_uint16_le cscratch off
                            lxor Engine.Corrupt.mask hm)
                        done
                      end
                    done;
                    tally.Engine.Corrupt.injected <-
                      tally.Engine.Corrupt.injected + 1;
                    let clean =
                      Codec.verify cscratch ~base:0 ~wire
                      && Codec.well_formed cscratch ~base:0
                           ~wire:(wire - Codec.guard_words)
                           ~words:(Array.length p)
                    in
                    if clean then
                      (* CRC collision: the garbled frame is delivered, so
                         the algorithm sees the same wrong values the
                         engine's decoder would read back *)
                      Some
                        ( u,
                          Codec.decode cscratch ~base:0
                            ~wire:(wire - Codec.guard_words)
                            ~words:(Array.length p) )
                    else begin
                      tally.Engine.Corrupt.detected <-
                        tally.Engine.Corrupt.detected + 1;
                      kill ();
                      None
                    end
                  end
                end
                else Some (u, p))
              in_flight.(v)
        done
      end
    | _ -> ());
    let delivered = Array.map List.rev in_flight in
    Array.fill in_flight 0 n [];
    let this_round = !pending in
    let this_round_words = !pending_words in
    let this_round_bits = !pending_bits in
    max_inflight := max !max_inflight this_round;
    messages := !messages + this_round;
    pending := 0;
    pending_words := 0;
    pending_bits := 0;
    let stepped = ref 0 in
    let receivers = ref 0 in
    for v = 0 to n - 1 do
      let inbox = delivered.(v) in
      if inbox <> [] then incr receivers;
      if node_crashed v || node_dormant v then ()
      else if algo.ehalted states.(v) then begin
        if inbox <> [] then
          raise
            (Engine.Congestion_violation
               (Printf.sprintf "round %d: halted node %d received a message" !round v))
      end
      else begin
        incr stepped;
        let st, outbox =
          step ~round:!round ~node:v states.(v) (Engine.Inbox.of_list inbox)
        in
        states.(v) <- st;
        let used = Hashtbl.create (List.length outbox) in
        List.iter
          (fun (u, p) ->
            if not (is_neighbor v u) then
              raise
                (Engine.Congestion_violation
                   (Printf.sprintf "round %d: node %d sent to non-neighbor %d" !round v u));
            let churn_dead =
              match churn with
              | Some c ->
                Engine.Churn.edge_down c ~src:v ~dst:u
                || Engine.Churn.crashed c u
                || Engine.Churn.dormant c u
              | None -> false
            in
            if churn_dead then
              (* matches the engine: the width was checked at each put,
                 duplicate-slot is not (the frame never occupies a slot) *)
              incr churn_dropped
            else begin
              if Hashtbl.mem used u then
                raise
                  (Engine.Congestion_violation
                     (Printf.sprintf "round %d: node %d sent twice over edge to %d" !round v u));
              Hashtbl.add used u ();
              if instrumented then
                sink.on_message ~round:!round ~src:v ~dst:u ~words:(Array.length p);
              in_flight.(u) <- (v, p) :: in_flight.(u);
              incr pending;
              pending_words := !pending_words + Array.length p;
              pending_bits := !pending_bits + frame_bits p
            end)
          outbox
      end
    done;
    if instrumented then begin
      let module S = Engine.Sink in
      let c = Array.make S.n_counters 0 in
      c.(S.delivered) <- this_round;
      c.(S.words) <- this_round_words;
      c.(S.bits) <- this_round_bits;
      c.(S.receivers) <- !receivers;
      c.(S.stepped) <- !stepped;
      c.(S.sent) <- !pending;
      c.(S.dropped) <- !churn_dropped;
      c.(S.corrupted) <- !corrupt_dropped;
      c.(S.crashed) <- !delta.Engine.Churn.d_crashed;
      c.(S.arrived) <- !delta.Engine.Churn.d_arrived;
      c.(S.departed) <- !delta.Engine.Churn.d_departed;
      c.(S.inserted) <- !delta.Engine.Churn.d_inserted;
      sink.on_round { round = !round; counts = c }
    end;
    incr round
  done;
  if instrumented then sink.on_finish ();
  (states, { Engine.rounds = !round; messages = !messages; max_inflight = !max_inflight })
