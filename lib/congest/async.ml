open Kdom_graph

type report = {
  async_time : float;
  pulses : int;
  alg_messages : int;
  sync_messages : int;
}

(* ------------------------------------------------------------------ *)
(* A minimal event queue: (time, sequence)-ordered binary heap. *)

module Events = struct
  type 'a t = { mutable data : (float * int * 'a) array; mutable len : int; mutable seq : int }

  let create () = { data = [||]; len = 0; seq = 0 }
  let is_empty q = q.len = 0
  let before (t1, s1, _) (t2, s2, _) = t1 < t2 || (t1 = t2 && s1 < s2)

  let swap q i j =
    let tmp = q.data.(i) in
    q.data.(i) <- q.data.(j);
    q.data.(j) <- tmp

  let push q time payload =
    let item = (time, q.seq, payload) in
    q.seq <- q.seq + 1;
    if q.len = Array.length q.data then begin
      let cap = max 16 (2 * q.len) in
      let data = Array.make cap item in
      Array.blit q.data 0 data 0 q.len;
      q.data <- data
    end;
    q.data.(q.len) <- item;
    let i = ref q.len in
    q.len <- q.len + 1;
    while !i > 0 && before q.data.(!i) q.data.((!i - 1) / 2) do
      swap q !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop q =
    if q.len = 0 then invalid_arg "Async.Events.pop: empty";
    let top = q.data.(0) in
    q.len <- q.len - 1;
    q.data.(0) <- q.data.(q.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let best = ref !i in
      if l < q.len && before q.data.(l) q.data.(!best) then best := l;
      if r < q.len && before q.data.(r) q.data.(!best) then best := r;
      if !best = !i then continue := false
      else begin
        swap q !i !best;
        i := !best
      end
    done;
    top
end

(* ------------------------------------------------------------------ *)

(* Uniform on the half-open interval (0, max_delay], as documented:
   [Rng.float rng 1.0] is uniform in [0, 1), so [1 - u] is in (0, 1].  The
   historical sampler clamped [Rng.float rng max_delay] (uniform in
   [0, max_delay)) to a 1e-9 floor, which neither matched the documented
   interval nor could ever produce [max_delay]. *)
let sample_delay rng ~max_delay =
  if max_delay <= 0. then invalid_arg "Async: max_delay must be positive";
  max_delay *. (1.0 -. Rng.float rng 1.0)

type 'st node = {
  mutable state : 'st;
  mutable next_pulse : int;
  mutable is_halted : bool;
  mutable awaiting_acks : int;
  mutable safe_pulse : int;     (* highest pulse this node is safe for *)
  buffers : (int, (int * Engine.payload) list) Hashtbl.t;
  safes : (int, int) Hashtbl.t; (* pulse -> SAFE announcements received *)
  degree : int;
}

(* ------------------------------------------------------------------ *)
(* Reliable delivery over faulty links: a sequence-numbered DATA/LACK
   link layer beneath the α-synchronizer. *)

type fault_report = {
  report : report;
  frames : int;
  retransmits : int;
  timeouts : int;
  dropped : int;
  duplicated : int;
  crash_dropped : int;
  corrupted : int;
}

exception Delivery_failed of { src : int; dst : int; attempts : int }

(* Every logical message of the synchronizer, tagged with the pulse it
   belongs to so instrumentation can attribute link-layer work. *)
type wire =
  | WAlg of int * Engine.payload  (* sender's pulse, payload *)
  | WAck of int                   (* pulse being acknowledged *)
  | WSafe of int                  (* pulse declared safe *)

let wire_pulse = function WAlg (p, _) -> p | WAck p -> p | WSafe p -> p

(* Physical frames.  A [Data] frame carries one logical message with a
   per-directed-link (slot) sequence number; the receiver answers with a
   link-level ack [Lack] over the reverse slot of the same edge, itself
   subject to the same faults. *)
type frame =
  | Data of { src : int; slot : int; seq : int; msg : wire }
  | Lack of { slot : int; seq : int }

type rev =
  | Arrive of int * frame  (* destination, frame *)
  | Garbled of int * int   (* destination, pulse: a copy whose wire bytes
                              were corrupted in flight — the receiver's
                              guard check rejects it, so it carries no
                              usable frame, only its accounting identity *)
  | Timer of int * int     (* slot, seq: retransmission timeout *)
  | Wake of int            (* node recovers from a crash *)

type pending = {
  p_src : int;
  p_dst : int;
  p_msg : wire;
  mutable attempts : int;
  mutable rto : float;
}

(* Per-pulse counter vectors ({!Engine.Sink.counter}-indexed), grown on
   demand, for end-of-run sink emission.  An empty slot is a pulse with
   nothing counted yet. *)
module Tally = struct
  type t = { mutable a : int array array }

  let create () = { a = Array.make 16 [||] }

  let add t pulse c x =
    if pulse >= Array.length t.a then begin
      let b = Array.make (max (pulse + 1) (2 * Array.length t.a)) [||] in
      Array.blit t.a 0 b 0 (Array.length t.a);
      t.a <- b
    end;
    if Array.length t.a.(pulse) = 0 then
      t.a.(pulse) <- Array.make Engine.Sink.n_counters 0;
    let v = t.a.(pulse) in
    v.(c) <- v.(c) + x

  let get t pulse =
    if pulse < Array.length t.a && Array.length t.a.(pulse) > 0 then t.a.(pulse)
    else Array.make Engine.Sink.n_counters 0
end

let run_reliable ~rng ?(faults = Faults.none) ?(max_delay = 1.0) ?max_words
    ?ack_timeout ?(max_attempts = 60) ?(sink = Engine.Sink.null) g algo =
  let n = Graph.n g in
  let eng = Engine.create g in
  let flt = Faults.compile eng faults in
  let max_words =
    match max_words with Some w -> w | None -> Engine.default_max_words n
  in
  let ack_timeout =
    match ack_timeout with Some t -> t | None -> 4.0 *. max_delay
  in
  if ack_timeout <= 0. then
    invalid_arg "Async.run_reliable: ack_timeout must be positive";
  if max_attempts < 1 then
    invalid_arg "Async.run_reliable: max_attempts must be >= 1";
  let step = Engine.recorder ~max_words g algo in
  let nodes =
    Array.init n (fun v ->
        let state = algo.Engine.einit g v in
        {
          state;
          next_pulse = 0;
          is_halted = algo.Engine.ehalted state;
          awaiting_acks = 0;
          safe_pulse = -1;
          buffers = Hashtbl.create 8;
          safes = Hashtbl.create 8;
          degree = Engine.degree eng v;
        })
  in
  let halted_count = ref 0 in
  Array.iter (fun nd -> if nd.is_halted then incr halted_count) nodes;
  (* used_at.(slot) = last pulse in which the slot carried an algorithm
     message; detects two sends over one edge within a pulse in O(1) *)
  let used_at = Array.make (max 1 (Engine.port_count eng)) (-1) in
  let queue : rev Events.t = Events.create () in
  let alg_messages = ref 0 in
  let sync_messages = ref 0 in
  let max_pulse = ref 0 in
  let finish_time = ref 0.0 in
  let pulse_cap = Engine.default_max_rounds n in
  let delay () = sample_delay rng ~max_delay in
  (* link layer state, indexed by directed-edge slot *)
  let ports = max 1 (Engine.port_count eng) in
  let next_seq = Array.make ports 0 in
  let pending : (int * int, pending) Hashtbl.t = Hashtbl.create 64 in
  (* duplicate suppression: per-slot watermark plus the out-of-order set
     above it, compacted as the watermark advances, so memory stays
     bounded by the reorder window rather than the frame count *)
  let seen_low = Array.make ports 0 in
  let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let frames = ref 0 in
  let retransmits = ref 0 in
  let timeouts = ref 0 in
  let instrumented = sink != Engine.Sink.null in
  let tally = Tally.create () in
  (* With corruption enabled every frame is implicitly guarded, so its
     physical width gains the CRC wire word; control messages (acks,
     SAFE announcements, link-level acks) are one-word frames. *)
  let guarded = (Faults.spec flt).Faults.corrupt <> None in
  let gw = if guarded then Codec.guard_words else 0 in
  let frame_wire = function
    | Data { msg = WAlg (_, payload); _ } -> Codec.measure payload + gw
    | Data _ | Lack _ -> 1 + gw
  in
  let transmit_frame now ~slot ~dst ~pulse frame =
    incr frames;
    let wire = frame_wire frame in
    let copies =
      Faults.transmit flt ~now ~slot ~base_delay:delay (fun at ->
          (* per-copy verdict: a garbled copy still arrives — and is
             rejected by the guard there — so its latency still occupies
             the link and the sender's timer, like a real bad frame *)
          if Faults.garble flt ~pulse ~wire then
            Events.push queue at (Garbled (dst, pulse))
          else Events.push queue at (Arrive (dst, frame)))
    in
    if instrumented then
      if copies = 0 then Tally.add tally pulse Engine.Sink.dropped 1
      else if copies > 1 then Tally.add tally pulse Engine.Sink.duplicated 1
  in
  let transmit_data now slot seq =
    match Hashtbl.find_opt pending (slot, seq) with
    | None -> ()
    | Some p ->
      transmit_frame now ~slot ~dst:p.p_dst ~pulse:(wire_pulse p.p_msg)
        (Data { src = p.p_src; slot; seq; msg = p.p_msg })
  in
  (* hand one logical message to the link layer; [slot] is the directed
     edge (src, dst), already validated by the caller *)
  let reliable_send now ~slot ~src ~dst msg =
    let seq = next_seq.(slot) in
    next_seq.(slot) <- seq + 1;
    Hashtbl.replace pending (slot, seq)
      { p_src = src; p_dst = dst; p_msg = msg; attempts = 1; rto = ack_timeout };
    transmit_data now slot seq;
    Events.push queue (now +. ack_timeout) (Timer (slot, seq))
  in
  let send_sync now ~src ~dst msg =
    incr sync_messages;
    reliable_send now ~slot:(Engine.find_port eng ~src ~dst) ~src ~dst msg
  in
  let declare_safe now v pulse =
    let nd = nodes.(v) in
    nd.safe_pulse <- pulse;
    Engine.iter_neighbors eng v (fun u -> send_sync now ~src:v ~dst:u (WSafe pulse))
  in
  let rec advance now v =
    let nd = nodes.(v) in
    let p = nd.next_pulse in
    if p > pulse_cap then raise (Engine.Round_limit_exceeded p);
    let ready =
      p = 0
      || (nd.safe_pulse >= p - 1
         && Option.value ~default:0 (Hashtbl.find_opt nd.safes (p - 1)) = nd.degree)
    in
    if ready && not (!halted_count = n) then begin
      nd.next_pulse <- p + 1;
      max_pulse := max !max_pulse p;
      let inbox =
        Option.value ~default:[] (Hashtbl.find_opt nd.buffers p)
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      Hashtbl.remove nd.buffers p;
      let outbox =
        if nd.is_halted then begin
          if inbox <> [] then
            raise
              (Engine.Congestion_violation
                 (Printf.sprintf "async pulse %d: halted node %d received a message" p v));
          []
        end
        else begin
          if instrumented then begin
            Tally.add tally p Engine.Sink.stepped 1;
            if inbox <> [] then Tally.add tally p Engine.Sink.receivers 1
          end;
          (* the synchronizer steps every live node every pulse — a pulse
             is only declared safe once all its messages are acked, so wake
             hints are not consulted here: the event queue itself is the
             wake source *)
          let st, outbox =
            step ~round:p ~node:v nd.state (Engine.Inbox.of_list inbox)
          in
          nd.state <- st;
          if (not nd.is_halted) && algo.Engine.ehalted st then begin
            nd.is_halted <- true;
            incr halted_count;
            finish_time := Float.max !finish_time now
          end;
          outbox
        end
      in
      List.iter
        (fun (u, payload) ->
          let slot = Engine.find_port eng ~src:v ~dst:u in
          if slot < 0 then
            raise
              (Engine.Congestion_violation
                 (Printf.sprintf "async pulse %d: node %d sent to non-neighbor %d" p v u));
          if used_at.(slot) = p then
            raise
              (Engine.Congestion_violation
                 (Printf.sprintf "async pulse %d: node %d sent twice over edge to %d" p v u));
          used_at.(slot) <- p;
          incr alg_messages;
          if instrumented then begin
            Tally.add tally p Engine.Sink.sent 1;
            sink.Engine.Sink.on_message ~round:p ~src:v ~dst:u
              ~words:(Array.length payload)
          end;
          reliable_send now ~slot ~src:v ~dst:u (WAlg (p, payload)))
        outbox;
      nd.awaiting_acks <- List.length outbox;
      if nd.awaiting_acks = 0 then begin
        declare_safe now v p;
        advance now v
      end
    end
  in
  (* dispatch one logical message — exactly once per (slot, seq) — into the
     synchronizer layer *)
  let dispatch time dst src msg =
    let nd = nodes.(dst) in
    (match msg with
    | WAlg (src_pulse, payload) ->
      let slot = src_pulse + 1 in
      Hashtbl.replace nd.buffers slot
        ((src, payload) :: Option.value ~default:[] (Hashtbl.find_opt nd.buffers slot));
      if instrumented then begin
        Tally.add tally slot Engine.Sink.delivered 1;
        Tally.add tally slot Engine.Sink.words (Array.length payload);
        Tally.add tally slot Engine.Sink.bits
          (Codec.measured_bits payload + (Codec.word_bits * gw))
      end;
      send_sync time ~src:dst ~dst:src (WAck src_pulse)
    | WAck pulse ->
      if pulse = nd.next_pulse - 1 then begin
        nd.awaiting_acks <- nd.awaiting_acks - 1;
        if nd.awaiting_acks = 0 then declare_safe time dst pulse
      end
    | WSafe pulse ->
      Hashtbl.replace nd.safes pulse
        (1 + Option.value ~default:0 (Hashtbl.find_opt nd.safes pulse)));
    advance time dst
  in
  let is_new slot seq =
    if seq < seen_low.(slot) || Hashtbl.mem seen (slot, seq) then false
    else begin
      Hashtbl.replace seen (slot, seq) ();
      while Hashtbl.mem seen (slot, seen_low.(slot)) do
        Hashtbl.remove seen (slot, seen_low.(slot));
        seen_low.(slot) <- seen_low.(slot) + 1
      done;
      true
    end
  in
  for v = 0 to n - 1 do
    if Faults.down flt ~node:v ~time:0.0 then begin
      match Faults.next_up flt ~node:v ~time:0.0 with
      | Some t -> Events.push queue t (Wake v)
      | None -> ()
    end
    else advance 0.0 v
  done;
  let all_halted () = !halted_count = n in
  while (not (all_halted ())) && not (Events.is_empty queue) do
    let time, _, ev = Events.pop queue in
    match ev with
    | Wake v -> advance time v
    | Timer (slot, seq) -> (
      match Hashtbl.find_opt pending (slot, seq) with
      | None -> ()  (* acked in the meantime *)
      | Some p ->
        incr timeouts;
        if Faults.down flt ~node:p.p_src ~time then begin
          (* a crashed sender fires no timers; postpone to recovery *)
          match Faults.next_up flt ~node:p.p_src ~time with
          | Some t -> Events.push queue t (Timer (slot, seq))
          | None -> Hashtbl.remove pending (slot, seq)
        end
        else begin
          p.attempts <- p.attempts + 1;
          if p.attempts > max_attempts then
            raise
              (Delivery_failed
                 { src = p.p_src; dst = p.p_dst; attempts = p.attempts - 1 });
          incr retransmits;
          if instrumented then
            Tally.add tally (wire_pulse p.p_msg) Engine.Sink.retransmits 1;
          transmit_data time slot seq;
          p.rto <- p.rto *. 2.0;
          Events.push queue (time +. p.rto) (Timer (slot, seq))
        end)
    | Garbled (dst, pulse) ->
      (* the guard check fails: drop and count, send no link-level ack —
         the sender's retransmission timer recovers delivery *)
      if Faults.down flt ~node:dst ~time then Faults.note_crash_drop flt
      else begin
        Faults.note_corrupt flt;
        if instrumented then Tally.add tally pulse Engine.Sink.corrupted 1
      end
    | Arrive (dst, frame) ->
      if Faults.down flt ~node:dst ~time then Faults.note_crash_drop flt
      else (
        match frame with
        | Data { src; slot; seq; msg } ->
          (* always re-ack: the previous Lack may have been lost *)
          transmit_frame time
            ~slot:(Engine.find_port eng ~src:dst ~dst:src)
            ~dst:src ~pulse:(wire_pulse msg)
            (Lack { slot; seq });
          if is_new slot seq then dispatch time dst src msg
        | Lack { slot; seq } -> Hashtbl.remove pending (slot, seq))
  done;
  if not (all_halted ()) then
    invalid_arg "Async.run_reliable: event queue drained before quiescence";
  if instrumented then
    for p = 0 to !max_pulse do
      sink.Engine.Sink.on_round { round = p; counts = Tally.get tally p }
    done;
  if instrumented then sink.Engine.Sink.on_finish ();
  let c = Faults.counters flt in
  ( Array.map (fun nd -> nd.state) nodes,
    {
      report =
        {
          async_time = !finish_time;
          pulses = !max_pulse + 1;
          alg_messages = !alg_messages;
          sync_messages = !sync_messages;
        };
      frames = !frames;
      retransmits = !retransmits;
      timeouts = !timeouts;
      dropped = c.Faults.dropped;
      duplicated = c.Faults.duplicated;
      crash_dropped = c.Faults.crash_dropped;
      corrupted = c.Faults.corrupted;
    } )
