open Kdom_graph

type report = {
  async_time : float;
  pulses : int;
  alg_messages : int;
  sync_messages : int;
}

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

(* ------------------------------------------------------------------ *)
(* Events, as ints.  [code] is [pulse lsl 3 lor kind].  The first three
   kinds are the synchronizer's logical messages, each carried by a data
   frame with per-directed-link sequence number [b] on slot [a].  Every
   copy is answered by a link-level ack [k_lack] of frame ([a], [b]) over
   the reverse slot, subject to the same faults.  [k_garbled] is a copy
   corrupted in flight, which the receiver [a]'s guard check rejects;
   [k_timer] times out frame ([a], [b]); [k_wake] recovers node [a]. *)

let k_alg = 0 (* algorithm payload sent at [pulse] *)
and k_ack = 1 (* acknowledgment of an algorithm message of [pulse] *)
and k_safe = 2 (* [pulse] declared safe *)
and k_lack = 3 and k_garbled = 4 and k_timer = 5 and k_wake = 6

(* Events pop in (time, seq) order, [seq] being one push counter shared
   by every queue, so simultaneous events pop in push order. *)
let[@inline] before (t1 : float) (s1 : int) (t2 : float) (s2 : int) =
  t1 < t2 || (t1 = t2 && s1 < s2)

(* Columns of events: due time, push number and the event's ints. *)
type cols = {
  mutable time : float array; mutable seq : int array;
  mutable code : int array; mutable a : int array; mutable b : int array;
}

let cols () = { time = [||]; seq = [||]; code = [||]; a = [||]; b = [||] }

(* Double the columns; the [len] entries of the old ring that start at
   [head] become the prefix of the new. *)
let grow c ~head ~len =
  let cap = Array.length c.seq in
  let cap' = max 16 (2 * cap) in
  let move x src =
    let dst = Array.make cap' x in
    for i = 0 to len - 1 do
      dst.(i) <- src.((head + i) land (cap - 1))
    done;
    dst
  in
  c.time <- move 0. c.time;
  c.seq <- move 0 c.seq;
  c.code <- move 0 c.code;
  c.a <- move 0 c.a;
  c.b <- move 0 c.b

let[@inline] set c i time seq code a b =
  c.time.(i) <- time; c.seq.(i) <- seq; c.code.(i) <- code; c.a.(i) <- a; c.b.(i) <- b

let[@inline] copy c ~src ~dst =
  set c dst c.time.(src) c.seq.(src) c.code.(src) c.a.(src) c.b.(src)

(* An event queue on the columns, its least event at [head]: the heap,
   whose head stays 0, or a ring of retransmission timers that fire [rto]
   after they are armed. *)
type queue = { c : cols; mutable head : int; mutable len : int; rto : float }

let queue rto = { c = cols (); head = 0; len = 0; rto }

(* A binary min-heap. *)
module Heap = struct
  let[@inline] push h time seq code a b =
    let c = h.c in
    if h.len = Array.length c.seq then grow c ~head:0 ~len:h.len;
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && before time seq c.time.((!i - 1) / 2) c.seq.((!i - 1) / 2) do
      copy c ~src:((!i - 1) / 2) ~dst:!i;
      i := (!i - 1) / 2
    done;
    set c !i time seq code a b

  let pop h =
    let c = h.c in
    let n = h.len - 1 in
    h.len <- n;
    let time = c.time.(n) and seq = c.seq.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let m =
        if l + 1 < n && before c.time.(l + 1) c.seq.(l + 1) c.time.(l) c.seq.(l)
        then l + 1
        else l
      in
      if m < n && before c.time.(m) c.seq.(m) time seq then begin
        copy c ~src:m ~dst:!i;
        i := m
      end
      else sifting := false
    done;
    copy c ~src:n ~dst:!i
end

(* A timer ring.  Timers are armed at the current time, which never
   decreases, so a ring's due times never decrease either: it stays
   sorted by (time, seq) with no heap at all. *)
module Fifo = struct
  let[@inline] push f time seq a b =
    let c = f.c in
    let cap = Array.length c.seq in
    if f.len > 0 && time < c.time.((f.head + f.len - 1) land (cap - 1)) then
      invalid_arg "Async.Fifo.push: timer due before the one armed earlier";
    if f.len = cap then begin
      grow c ~head:f.head ~len:f.len;
      f.head <- 0
    end;
    set c ((f.head + f.len) land (Array.length c.seq - 1)) time seq k_timer a b;
    f.len <- f.len + 1

  let pop f =
    f.head <- (f.head + 1) land (Array.length f.c.seq - 1);
    f.len <- f.len - 1
end

(* Per-slot windows over a link's sequence numbers.  The cells for seqs
   [base, base + cap) of a slot sit in a power-of-two ring at
   [seq land (cap - 1)], grown on demand; a cell outside the window, or
   never set, reads [empty]. *)
module Window = struct
  type 'a t = { base : int array; ring : 'a array array; empty : 'a }

  let create slots empty = { base = Array.make slots 0; ring = Array.make slots [||]; empty }

  let get w slot seq =
    let r = w.ring.(slot) in
    let off = seq - w.base.(slot) in
    if off < 0 || off >= Array.length r then w.empty
    else r.(seq land (Array.length r - 1))

  (* [seq] must not be below the base *)
  let set w slot seq x =
    let r = w.ring.(slot) and base = w.base.(slot) in
    let r =
      if seq - base < Array.length r then r
      else begin
        let cap = ref (max 4 (2 * Array.length r)) in
        while seq - base >= !cap do
          cap := 2 * !cap
        done;
        let r' = Array.make !cap w.empty in
        for s = base to base + Array.length r - 1 do
          r'.(s land (!cap - 1)) <- r.(s land (Array.length r - 1))
        done;
        w.ring.(slot) <- r';
        r'
      end
    in
    r.(seq land (Array.length r - 1)) <- x

  (* Move the base over the cells for which [skip] holds, emptying them,
     but not to or past [limit]; the slot must have been [set] before. *)
  let advance w slot skip ~limit =
    let r = w.ring.(slot) in
    let mask = Array.length r - 1 in
    let s = ref w.base.(slot) in
    while !s < limit && skip r.(!s land mask) do
      r.(!s land mask) <- w.empty;
      incr s
    done;
    w.base.(slot) <- !s
end

(* A frame awaiting its link-level ack. *)
type pending = { msg : int; mutable attempts : int; pay : Engine.payload }

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

type clock = { mutable now : float; mutable finish : float }

let run_reliable ~rng ?(faults = Faults.none) ?(max_delay = 1.0) ?max_words
    ?ack_timeout ?(max_attempts = 60) ?(sink = Engine.Sink.null) g algo =
  let positive what x =
    if not (Float.is_finite x && x > 0.) then
      invalid_arg
        (Printf.sprintf "Async.run_reliable: %s must be positive and finite, got %g" what x)
  in
  positive "max_delay" max_delay;
  let ack_timeout = Option.value ack_timeout ~default:(4.0 *. max_delay) in
  positive "ack_timeout" ack_timeout;
  if max_attempts < 1 then
    invalid_arg "Async.run_reliable: max_attempts must be >= 1";
  let n = Graph.n g in
  let eng = Engine.create g in
  let flt = Faults.compile eng faults in
  let max_words = Option.value max_words ~default:(Engine.default_max_words n) in
  let step = Engine.recorder ~max_words g algo in
  (* the port map: node v's slots are [off.(v), off.(v + 1)), one per
     neighbor in increasing id; [rev] is the slot of the reverse edge *)
  let ports = max 1 (Engine.port_count eng) in
  let off = Array.make (n + 1) 0 in
  let slot_src = Array.make ports 0 and slot_dst = Array.make ports 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Engine.degree eng v;
    let s = ref off.(v) in
    Engine.iter_neighbors eng v (fun u ->
        assert (Engine.find_port eng ~src:v ~dst:u = !s);
        slot_src.(!s) <- v;
        slot_dst.(!s) <- u;
        incr s)
  done;
  let rev =
    Array.init ports (fun s -> Engine.find_port eng ~src:slot_dst.(s) ~dst:slot_src.(s))
  in
  (* the synchronizer, per node *)
  let states = Array.init n (fun v -> algo.Engine.einit g v) in
  let halted = Array.map algo.Engine.ehalted states in
  let halted_count = ref 0 in
  Array.iter (fun h -> if h then incr halted_count) halted;
  let next_pulse = Array.make n 0 in
  (* acks still due for the last pulse executed: 0 once it is safe *)
  let awaiting = Array.make n 0 in
  (* The skew bound.  Let node v have executed pulses [0, q) (its
     [next_pulse] is q).  A neighbor u sends an algorithm message at
     pulse p only after hearing SAFE(p-1) from v, which v announces after
     executing p-1, so p <= q; and v cannot execute p+1 before u is safe
     for p, which needs v's ack of that message, so p+1 >= q.  The
     message is consumed at pulse p+1, in {q, q+1}.  Likewise u announces
     SAFE(r) after executing r, which needs v's SAFE(r-1), so r <= q; and
     v executes r+1 only after SAFE(r) from every neighbor, so r >= q-1.
     Two slots per node therefore hold everything in flight to it, indexed
     by pulse parity: inbox buffers for pulses q and q+1 and SAFE counts
     for pulses q-1 and q.  A message outside that window raises. *)
  let safes = Array.make (2 * max 1 n) 0 in
  let absent : Engine.payload = [| 0 |] in
  (* inbox.(p land 1).(s): the pulse-p message from slot s's neighbor,
     indexed by the receiver's own slot s so that a node's messages lie
     in sender order *)
  let inbox = [| Array.make ports absent; Array.make ports absent |] in
  (* most steps receive nothing; they share one empty view *)
  let no_mail = Engine.Inbox.of_list [] in
  let violation fmt = Printf.ksprintf (fun s -> raise (Engine.Congestion_violation s)) fmt in
  let skew v what pulse =
    invalid_arg
      (Printf.sprintf
         "Async.run_reliable: node %d at pulse %d received %s for pulse %d, \
          outside the synchronizer's two-pulse window"
         v next_pulse.(v) what pulse)
  in
  (* used_at.(slot) = last pulse in which the slot carried an algorithm
     message; detects two sends over one edge within a pulse in O(1) *)
  let used_at = Array.make ports (-1) in
  let alg_messages = ref 0 and sync_messages = ref 0 and max_pulse = ref 0 in
  let clock = { now = 0.0; finish = 0.0 } in
  let pulse_cap = Engine.default_max_rounds n in
  (* the link layer, per directed-edge slot *)
  let next_seq = Array.make ports 0 in
  (* pend: the sender's unacked frames, its base the oldest of them;
     seen: the receiver's dispatched frames above its base, the watermark
     below which every frame was dispatched.  Both grow with the frames
     outstanding on the link, never with the frame count. *)
  let acked = { msg = 0; attempts = 0; pay = absent } in
  let is_acked p = p == acked in
  let pend = Window.create ports acked in
  let seen = Window.create ports false in
  let frames = ref 0 and retransmits = ref 0 and timeouts = ref 0 in
  let instrumented = sink != Engine.Sink.null in
  let tally = Tally.create () in
  (* the event queues: !queues.(0) is the heap of arrivals, garbled
     copies, wake-ups and postponed timers, !queues.(a) the ring of the
     timers armed at attempt a *)
  let heap = queue 0. in
  let queues = ref [| heap |] in
  let pushes = ref 0 in
  let[@inline] push time code a b =
    Heap.push heap time !pushes code a b;
    incr pushes
  in
  let push_timer attempt slot seq =
    let old = !queues in
    if attempt >= Array.length old then
      queues :=
        Array.init (attempt + 1) (fun l ->
            if l < Array.length old then old.(l) else queue (Float.ldexp ack_timeout (l - 1)));
    let f = !queues.(attempt) in
    Fifo.push f (clock.now +. f.rto) !pushes slot seq;
    incr pushes
  in
  (* With corruption enabled every frame is implicitly guarded, so its
     physical width gains the CRC wire word; control messages (acks,
     SAFE announcements, link-level acks) are one-word frames. *)
  let guarded = (Faults.spec flt).Faults.corrupt <> None in
  let gw = if guarded then Codec.guard_words else 0 in
  let transmit_frame ~slot ~dst ~pulse ~pay code a b =
    incr frames;
    let copies = Faults.transmit flt ~now:clock.now ~slot ~rng ~max_delay in
    for i = 0 to copies - 1 do
      (* per-copy verdict: a garbled copy still arrives — and is rejected
         by the guard there — so its latency still occupies the link and
         the sender's timer, like a real bad frame *)
      if
        guarded
        && Faults.garble flt ~pulse
             ~wire:((if pay != absent then Codec.measure pay else 1) + gw)
      then push (Faults.arrival flt i) ((pulse lsl 3) lor k_garbled) dst 0
      else push (Faults.arrival flt i) code a b
    done;
    if instrumented then
      if copies = 0 then Tally.add tally pulse Engine.Sink.dropped 1
      else if copies > 1 then Tally.add tally pulse Engine.Sink.duplicated 1
  in
  let transmit_data slot seq p =
    transmit_frame ~slot ~dst:slot_dst.(slot) ~pulse:(p.msg lsr 3) ~pay:p.pay p.msg
      slot seq
  in
  (* hand one logical message to the link layer on a valid slot *)
  let reliable_send slot code pay =
    let seq = next_seq.(slot) in
    next_seq.(slot) <- seq + 1;
    let p = { msg = code; attempts = 1; pay } in
    Window.set pend slot seq p;
    transmit_data slot seq p;
    push_timer 1 slot seq
  in
  let send_sync slot code =
    incr sync_messages;
    reliable_send slot code absent
  in
  let declare_safe v pulse =
    for s = off.(v) to off.(v + 1) - 1 do
      send_sync s ((pulse lsl 3) lor k_safe)
    done
  in
  let rec advance v =
    let p = next_pulse.(v) in
    if p > pulse_cap then raise (Engine.Round_limit_exceeded p);
    let prev = (2 * v) + ((p - 1) land 1) in
    let ready =
      p = 0 || (awaiting.(v) = 0 && safes.(prev) = off.(v + 1) - off.(v))
    in
    if ready && not (!halted_count = n) then begin
      next_pulse.(v) <- p + 1;
      if p > 0 then safes.(prev) <- 0;
      max_pulse := max !max_pulse p;
      let buf = inbox.(p land 1) in
      let msgs = ref [] in
      for s = off.(v + 1) - 1 downto off.(v) do
        if buf.(s) != absent then begin
          msgs := (slot_dst.(s), buf.(s)) :: !msgs;
          buf.(s) <- absent
        end
      done;
      let outbox =
        if halted.(v) then begin
          if !msgs <> [] then violation "async pulse %d: halted node %d received a message" p v;
          []
        end
        else begin
          if instrumented then begin
            Tally.add tally p Engine.Sink.stepped 1;
            if !msgs <> [] then Tally.add tally p Engine.Sink.receivers 1
          end;
          (* the synchronizer steps every live node every pulse — a pulse
             is only declared safe once all its messages are acked, so wake
             hints are not consulted here: the event queue itself is the
             wake source *)
          let ib = if !msgs = [] then no_mail else Engine.Inbox.of_list !msgs in
          let st, outbox = step ~round:p ~node:v states.(v) ib in
          states.(v) <- st;
          if algo.Engine.ehalted st then begin
            halted.(v) <- true;
            incr halted_count;
            clock.finish <- Float.max clock.finish clock.now
          end;
          outbox
        end
      in
      List.iter
        (fun (u, payload) ->
          let slot = Engine.find_port eng ~src:v ~dst:u in
          if slot < 0 then violation "async pulse %d: node %d sent to non-neighbor %d" p v u;
          if used_at.(slot) = p then
            violation "async pulse %d: node %d sent twice over edge to %d" p v u;
          used_at.(slot) <- p;
          incr alg_messages;
          if instrumented then begin
            Tally.add tally p Engine.Sink.sent 1;
            sink.Engine.Sink.on_message ~round:p ~src:v ~dst:u
              ~words:(Array.length payload)
          end;
          reliable_send slot ((p lsl 3) lor k_alg) payload)
        outbox;
      awaiting.(v) <- List.length outbox;
      if awaiting.(v) = 0 then begin
        declare_safe v p;
        advance v
      end
    end
  in
  (* dispatch the logical message of frame (slot, seq) — exactly once —
     into the synchronizer layer *)
  let dispatch slot seq code =
    let v = slot_dst.(slot) and pulse = code lsr 3 in
    let q = next_pulse.(v) in
    let kind = code land 7 in
    if kind = k_alg then begin
      let target = pulse + 1 in
      if target <> q && target <> q + 1 then skew v "a message" target;
      (* the sender keeps the frame until an ack of it arrives, and v
         has only just sent the first one *)
      let p = Window.get pend slot seq in
      assert (p != acked);
      let payload = p.pay in
      inbox.(target land 1).(rev.(slot)) <- payload;
      if instrumented then begin
        Tally.add tally target Engine.Sink.delivered 1;
        Tally.add tally target Engine.Sink.words (Array.length payload);
        Tally.add tally target Engine.Sink.bits
          (Codec.measured_bits payload + (Codec.word_bits * gw))
      end;
      send_sync rev.(slot) ((pulse lsl 3) lor k_ack)
    end
    else if kind = k_ack then begin
      if pulse = q - 1 then begin
        awaiting.(v) <- awaiting.(v) - 1;
        if awaiting.(v) = 0 then declare_safe v pulse
      end
    end
    else begin
      if pulse <> q - 1 && pulse <> q then skew v "SAFE" pulse;
      let i = (2 * v) + (pulse land 1) in
      safes.(i) <- safes.(i) + 1
    end;
    advance v
  in
  let is_new slot seq =
    if seq < seen.Window.base.(slot) || Window.get seen slot seq then false
    else begin
      Window.set seen slot seq true;
      Window.advance seen slot Fun.id ~limit:max_int;
      true
    end
  in
  let down v = Faults.down flt ~node:v ~time:clock.now in
  let fire_timer slot seq =
    let p = Window.get pend slot seq in
    if p != acked then begin
      incr timeouts;
      let src = slot_src.(slot) in
      if down src then begin
        (* a crashed sender fires no timers; postpone to recovery.  One
           that never recovers arms nothing more, and its entry stays so a
           copy still in flight is dispatched like any other. *)
        match Faults.next_up flt ~node:src ~time:clock.now with
        | Some t -> push t k_timer slot seq
        | None -> ()
      end
      else begin
        p.attempts <- p.attempts + 1;
        if p.attempts > max_attempts then
          raise
            (Delivery_failed
               { src; dst = slot_dst.(slot); attempts = p.attempts - 1 });
        incr retransmits;
        if instrumented then
          Tally.add tally (p.msg lsr 3) Engine.Sink.retransmits 1;
        transmit_data slot seq p;
        push_timer p.attempts slot seq
      end
    end
  in
  let handle code a b =
    let kind = code land 7 in
    if kind = k_wake then advance a
    else if kind = k_timer then fire_timer a b
    else if kind = k_garbled then begin
      (* the guard check fails: drop and count, send no link-level ack —
         the sender's retransmission timer recovers delivery *)
      if down a then Faults.note_crash_drop flt
      else begin
        Faults.note_corrupt flt;
        if instrumented then Tally.add tally (code lsr 3) Engine.Sink.corrupted 1
      end
    end
    else if kind = k_lack then begin
      if down slot_src.(a) then Faults.note_crash_drop flt
      else begin
        if Window.get pend a b != acked then begin
          Window.set pend a b acked;
          Window.advance pend a is_acked ~limit:next_seq.(a)
        end
      end
    end
    else if down slot_dst.(a) then Faults.note_crash_drop flt
    else begin
      (* always re-ack: the previous ack may have been lost *)
      transmit_frame ~slot:rev.(a) ~dst:slot_src.(a) ~pulse:(code lsr 3) ~pay:absent
        ((code land lnot 7) lor k_lack) a b;
      if is_new a b then dispatch a b code
    end
  in
  for v = 0 to n - 1 do
    if Faults.down flt ~node:v ~time:0.0 then begin
      match Faults.next_up flt ~node:v ~time:0.0 with
      | Some t -> push t k_wake v 0
      | None -> ()
    end
    else advance v
  done;
  let drained = ref false in
  while !halted_count <> n && not !drained do
    (* the least (time, seq) among the queues' heads; a timer whose frame
       was acked in the meantime would do nothing, so it is dropped as
       soon as it reaches its ring's head *)
    let qs = !queues in
    let best = ref (-1) and bt = ref 0. and bs = ref 0 in
    for l = 0 to Array.length qs - 1 do
      let q = qs.(l) in
      let c = q.c in
      if l > 0 then
        while q.len > 0 && Window.get pend c.a.(q.head) c.b.(q.head) == acked do
          Fifo.pop q
        done;
      if q.len > 0 && (!best < 0 || before c.time.(q.head) c.seq.(q.head) !bt !bs) then begin
        best := l;
        bt := c.time.(q.head);
        bs := c.seq.(q.head)
      end
    done;
    if !best < 0 then drained := true
    else begin
      let q = qs.(!best) in
      let c = q.c and i = q.head in
      let code = c.code.(i) and a = c.a.(i) and b = c.b.(i) in
      if !best = 0 then Heap.pop q else Fifo.pop q;
      clock.now <- !bt;
      handle code a b
    end
  done;
  if !halted_count <> n then
    invalid_arg "Async.run_reliable: event queue drained before quiescence";
  if instrumented then
    for p = 0 to !max_pulse do
      sink.Engine.Sink.on_round { round = p; counts = Tally.get tally p }
    done;
  if instrumented then sink.Engine.Sink.on_finish ();
  let c = Faults.counters flt in
  ( states,
    {
      report =
        {
          async_time = clock.finish;
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
