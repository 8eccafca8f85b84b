open Kdom_graph

type payload = int array

type stats = { rounds : int; messages : int; max_inflight : int }

exception Round_limit_exceeded of int
exception Congestion_violation of string
exception Duplicate_edge of { src : int; dst : int }

(* The model's word is 16 bits; a message of O(log n) bits is a constant
   number of words for any practical n (= the historical default of 4) and
   grows logarithmically beyond 2^32 nodes. *)
let word_bits = 16

let bits_needed n =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x lsr 1) in
  go 0 (max 1 n)

let default_max_words n = max 4 (2 + ((bits_needed n + word_bits - 1) / word_bits))
let default_max_rounds n = 10_000 + (100 * n)

(* A zero-copy view over the engine's packed delivery arena: flat sender
   and slot arrays, filled in sender-ascending order.  Each entry is either
   a reference into the arena ([slot >= 0]: the frame lives packed at byte
   offset [slot * a_stride]) or a boxed payload ([slot = -1], the shape
   [of_list] builds for the reference simulator and the async layer).  The
   engine reuses one arena for every step, so a view is only valid for the
   duration of the [estep] call it was passed to; [read] repositions a
   shared decoder, so at most one frame is being read at a time. *)
module Inbox = struct
  type t = {
    mutable src : int array;
    mutable slot : int array; (* arena slot of entry i, -1 = boxed *)
    mutable pay : payload array; (* boxed payloads for slot = -1 entries *)
    mutable len : int;
    (* Arena attachment, installed by the engine per delivery phase. *)
    mutable a_data : Bytes.t;
    mutable a_wire : int array;
    mutable a_wlog : int array;
    mutable a_stride : int;
    rd : Codec.reader; (* shared repositionable frame decoder *)
    wr : Codec.writer; (* scratch encoder for [read] on boxed entries *)
    (* Lazy arena fill: the round loop marks the stepping node instead of
       scanning its in-ports up front; the scan runs on the first
       accessor call, so kernels that ignore their mail this step
       (flood-style broadcasts) never pay for it. *)
    mutable fill_node : int; (* node awaiting a deferred fill, -1 = none *)
    mutable filler : t -> unit; (* installed per run *)
  }

  let no_fill (_ : t) = ()

  let create ~cap () =
    {
      src = Array.make (max 1 cap) 0;
      slot = Array.make (max 1 cap) (-1);
      pay = Array.make (max 1 cap) [||];
      len = 0;
      a_data = Bytes.empty;
      a_wire = [||];
      a_wlog = [||];
      a_stride = 0;
      rd = Codec.reader ();
      wr = Codec.writer ();
      fill_node = -1;
      filler = no_fill;
    }

  let ensure t = if t.fill_node >= 0 then t.filler t

  let attach t ~data ~wire ~wlog ~stride =
    t.a_data <- data;
    t.a_wire <- wire;
    t.a_wlog <- wlog;
    t.a_stride <- stride

  let length t =
    ensure t;
    t.len

  let is_empty t =
    ensure t;
    t.len = 0

  let check t i =
    ensure t;
    if i < 0 || i >= t.len then invalid_arg "Engine.Inbox: index out of bounds"

  let sender t i =
    check t i;
    t.src.(i)

  let words t i =
    check t i;
    let s = t.slot.(i) in
    if s < 0 then Array.length t.pay.(i) else t.a_wlog.(s)

  let read t i =
    check t i;
    let s = t.slot.(i) in
    if s >= 0 then
      Codec.attach_reader t.rd t.a_data ~base:(s * t.a_stride)
        ~wire:t.a_wire.(s) ~words:t.a_wlog.(s)
    else begin
      let p = t.pay.(i) in
      Codec.scratch_writer t.wr ~budget:(Array.length p);
      Array.iter (Codec.put t.wr) p;
      Codec.attach_reader t.rd (Codec.writer_bytes t.wr) ~base:0
        ~wire:(Codec.wire t.wr) ~words:(Codec.words t.wr)
    end;
    t.rd

  let of_list l =
    let n = List.length l in
    let t = create ~cap:(max 1 n) () in
    List.iter
      (fun (u, p) ->
        t.src.(t.len) <- u;
        t.slot.(t.len) <- -1;
        t.pay.(t.len) <- p;
        t.len <- t.len + 1)
      l;
    t
end

(* Wake-up hints: when does a node need to be stepped again?  Consulted
   after every [step]; the latest hint replaces any earlier one.  In every
   mode a delivered message wakes the node — the hint only controls whether
   it is also stepped on message-free rounds. *)
type wake =
  | Always  (* step every round while live (the legacy dense schedule) *)
  | Next  (* step in the next round even without messages *)
  | At of int  (* step at that absolute round; past rounds schedule nothing *)
  | OnMessage  (* step only when a message arrives *)

let always _ = Always

(* The allocation-free send path.  An emitter is a reusable cursor the
   round loop attaches to its own send machinery: [start] positions the
   shared writer directly on the destination slot's arena region (after
   the non-neighbor / duplicate-edge checks),
   the algorithm [Codec.put]s the frame's words, and [commit] publishes
   the frame — no payload array, no cons cell, no copy.  [frame1]..
   [frame4] are closure-free shorthands for fixed-shape frames; [send]
   is the closure flavor from the issue statement. *)
module Emit = struct
  type t = {
    ew : Codec.writer;
    mutable enode : int; (* current sender, set by the round loop *)
    mutable eslot : int; (* destination slot of the open frame *)
    mutable edst : int;
    mutable edead : bool; (* open frame targets a churn-dead endpoint *)
    mutable eopen : bool;
    mutable estart : t -> int -> Codec.writer; (* installed per run *)
    mutable ecommit : t -> unit;
    mutable ebroadcast1 : t -> int -> unit;
  }

  let unattached : t -> int -> Codec.writer =
   fun _ _ -> invalid_arg "Engine.Emit: emitter not attached to an executor"

  let unattached_commit : t -> unit =
   fun _ -> invalid_arg "Engine.Emit: emitter not attached to an executor"

  let unattached_broadcast : t -> int -> unit =
   fun _ _ -> invalid_arg "Engine.Emit: emitter not attached to an executor"

  let make () =
    {
      ew = Codec.writer ();
      enode = -1;
      eslot = -1;
      edst = -1;
      edead = false;
      eopen = false;
      estart = unattached;
      ecommit = unattached_commit;
      ebroadcast1 = unattached_broadcast;
    }

  let start t ~dst = t.estart t dst
  let commit t = t.ecommit t
  let broadcast1 t a = t.ebroadcast1 t a

  let send t ~dst f =
    f (t.estart t dst);
    t.ecommit t

  let frame1 t ~dst a =
    let w = t.estart t dst in
    Codec.put w a;
    t.ecommit t

  let frame2 t ~dst a b =
    let w = t.estart t dst in
    Codec.put w a;
    Codec.put w b;
    t.ecommit t

  let frame3 t ~dst a b c =
    let w = t.estart t dst in
    Codec.put w a;
    Codec.put w b;
    Codec.put w c;
    t.ecommit t

  let frame4 t ~dst a b c d =
    let w = t.estart t dst in
    Codec.put w a;
    Codec.put w b;
    Codec.put w c;
    Codec.put w d;
    t.ecommit t
end

type 'st ealgorithm = {
  einit : Graph.t -> int -> 'st;
  estep :
    Graph.t -> round:int -> node:int -> 'st -> Inbox.t -> Emit.t -> 'st;
  ehalted : 'st -> bool;
  ewake : 'st -> wake;
}

module Sink = struct
  type counter = int

  (* The counter table: one line per counter, in index order — its JSON
     key, and whether span and summary records carry its sum ([false]:
     per-round only).  Every record shape, printer, sum and validator
     field list is derived from it. *)
  let table =
    [|
      ("delivered", true);
      ("words", true);
      ("bits", true);
      ("receivers", false);
      ("stepped", false);
      ("skipped", true);
      ("woken", true);
      ("sent", false);
      ("dropped", true);
      ("duplicated", true);
      ("retransmits", true);
      ("corrupted", true);
      ("crashed", true);
      ("arrived", true);
      ("departed", true);
      ("inserted", true);
    |]

  (* indices into [table], in its order *)
  let delivered = 0
  and words = 1
  and bits = 2
  and receivers = 3
  and stepped = 4
  and skipped = 5
  and woken = 6
  and sent = 7
  and dropped = 8
  and duplicated = 9
  and retransmits = 10
  and corrupted = 11
  and crashed = 12
  and arrived = 13
  and departed = 14
  and inserted = 15

  let n_counters = Array.length table
  let key c = fst table.(c)
  let summed c = snd table.(c)

  type round_info = { round : int; counts : int array }

  type t = {
    on_message : round:int -> src:int -> dst:int -> words:int -> unit;
    on_round : round_info -> unit;
    on_finish : unit -> unit;
  }

  let null =
    {
      on_message = (fun ~round:_ ~src:_ ~dst:_ ~words:_ -> ());
      on_round = ignore;
      on_finish = ignore;
    }

  let tee a b =
    {
      on_message =
        (fun ~round ~src ~dst ~words ->
          a.on_message ~round ~src ~dst ~words;
          b.on_message ~round ~src ~dst ~words);
      on_round =
        (fun ri ->
          a.on_round ri;
          b.on_round ri);
      on_finish =
        (fun () ->
          a.on_finish ();
          b.on_finish ());
    }

  let counters () =
    let acc = ref [] in
    ( { null with on_round = (fun ri -> acc := ri :: !acc) },
      fun () -> List.rev !acc )

  let empty_round_info round = { round; counts = Array.make n_counters 0 }

  (* Element-wise sum of two views of the same round: associative and
     commutative, with [empty_round_info] as identity, so teeing a sink
     across shards and combining per-round records is equivalent to one
     sink observing the whole round. *)
  let combine_round_info a b =
    if a.round <> b.round then
      invalid_arg "Engine.Sink.combine_round_info: round mismatch";
    { round = a.round; counts = Array.map2 ( + ) a.counts b.counts }

  let round_line b ri =
    Printf.bprintf b "{\"type\":\"round\",\"round\":%d" ri.round;
    Array.iteri (fun c v -> Printf.bprintf b ",\"%s\":%d" (key c) v) ri.counts;
    Buffer.add_string b "}\n"

  let activity ~n =
    let sent = Array.make n 0 and received = Array.make n 0 in
    ( {
        null with
        on_message =
          (fun ~round:_ ~src ~dst ~words:_ ->
            sent.(src) <- sent.(src) + 1;
            received.(dst) <- received.(dst) + 1);
      },
      sent,
      received )

  let jsonl ?(messages = false) oc =
    let b = Buffer.create 256 in
    {
      on_message =
        (fun ~round ~src ~dst ~words:w ->
          if messages then
            Printf.fprintf oc
              "{\"type\":\"msg\",\"round\":%d,\"src\":%d,\"dst\":%d,\"%s\":%d}\n"
              round src dst (key words) w);
      on_round =
        (fun ri ->
          Buffer.clear b;
          round_line b ri;
          Buffer.output_buffer oc b);
      on_finish = (fun () -> flush oc);
    }
end

(* Double the capacity of an int array, new cells set to [fill]. *)
let grow_ints a fill =
  let len = Array.length a in
  let b = Array.make (max 16 (2 * len)) fill in
  Array.blit a 0 b 0 len;
  b

(* Timer wheel for [Next]/[At] wake-ups: one int stack per absolute round,
   all chained through a single flat pool with a free list.  Once the pool
   has grown to the peak number of pending entries, a wake costs a few
   array stores and no allocation (an [int list] bucket would cons 3
   words per wake).  Entries are invalidated lazily — a rescheduled or
   cancelled wake leaves its entry behind and the consumer checks
   [wake_at] on pop — and pop order is irrelevant, because the frontier
   is sorted after it is collected. *)
module Timers = struct
  type t = {
    mutable head : int array; (* head.(r): top entry of round r's stack, -1 = empty *)
    mutable node : int array; (* pool: the node an entry wakes *)
    mutable next : int array; (* pool: entry below in its stack, or next free entry *)
    mutable free : int;       (* free-list head, -1 = none *)
    mutable used : int;       (* pool entries ever handed out *)
  }

  let create () =
    {
      head = Array.make 16 (-1);
      node = Array.make 16 0;
      next = Array.make 16 (-1);
      free = -1;
      used = 0;
    }

  let clear t =
    Array.fill t.head 0 (Array.length t.head) (-1);
    t.free <- -1;
    t.used <- 0

  let push t r v =
    while r >= Array.length t.head do
      t.head <- grow_ints t.head (-1)
    done;
    let i =
      if t.free >= 0 then begin
        let i = t.free in
        t.free <- t.next.(i);
        i
      end
      else begin
        if t.used = Array.length t.node then begin
          t.node <- grow_ints t.node 0;
          t.next <- grow_ints t.next (-1)
        end;
        t.used <- t.used + 1;
        t.used - 1
      end
    in
    t.node.(i) <- v;
    t.next.(i) <- t.head.(r);
    t.head.(r) <- i

  (* A node due at round [r], or -1 once round [r]'s stack is empty; the
     popped entry goes back on the free list. *)
  let pop t r =
    if r >= Array.length t.head || t.head.(r) < 0 then -1
    else begin
      let i = t.head.(r) in
      t.head.(r) <- t.next.(i);
      t.next.(i) <- t.free;
      t.free <- i;
      t.node.(i)
    end
end

(* One direction of the double buffer, shared by every shard: the packed
   frame arena with its slot-indexed wire/word counts, and the per-node
   receive counts.  Each cell has exactly one owning shard per phase (see
   the round loop below). *)
type side = {
  mutable data : Bytes.t; (* [stride] bytes per slot; sized at [exec] once
                             max_words is known, then reused *)
  wire : int array;       (* per slot: wire words of the frame, -1 = empty *)
  wlog : int array;       (* per slot: logical words of the frame *)
  count : int array;      (* per node: frames addressed to it *)
}

(* Per-shard bookkeeping for one direction of the double buffer: the
   stacks that let a shard visit and clear only what it touched.  Private
   to the shard, so clearing stays shard-local. *)
type sbuf = {
  s_written : int array;  (* in-slots of this shard written this round *)
  mutable s_wlen : int;
  s_active : int array;   (* owned receivers with count > 0 *)
  mutable s_alen : int;
  mutable s_total : int;
  mutable s_words : int;  (* logical words buffered *)
  mutable s_bits : int;   (* measured wire bits buffered *)
}

(* Cross-shard frame list for one (src shard, dst shard) pair: appended by
   the source in stepping order during phase A, drained and reset by the
   destination during phase B.  The phases are barrier-separated, so the
   two owners never touch it concurrently.  The frame data does not travel
   through here: every directed slot has a unique sender, which encodes the
   frame straight into the shared send arena, so the destination only
   learns *which* slots arrived. *)
type xarena = {
  mutable x_slot : int array;
  mutable x_len : int;
}

type shard = {
  mutable sh_nlive : int; (* owned live nodes *)
  sh_frontier : int array; (* woken timers and non-Always receivers *)
  mutable sh_plen : int;  (* frontier length this round *)
  sh_always : int array;  (* owned nodes in Always mode, ascending when clean *)
  mutable sh_alen : int;
  sh_timers : Timers.t;   (* owned nodes to wake at each round *)
  sh_ib : Inbox.t;        (* inbox arena, sized for the shard's max in-degree *)
  mutable sh_dv : sbuf;   (* delivery side this round *)
  mutable sh_sd : sbuf;   (* send side this round *)
  (* per-round outputs (phase A) *)
  mutable sh_stepped : int;
  mutable sh_woken : int;
  mutable sh_receivers : int;
  mutable sh_delivered_words : int;
  mutable sh_delivered_bits : int;
  mutable sh_emitted : int;
  mutable sh_send_dropped : int;
  mutable sh_vmin : int;  (* halted-receiver candidate for the next round *)
  (* control flags written serially / by the owner *)
  mutable sh_hit : bool;  (* an in-flight frame to this shard was dropped *)
  mutable sh_always_dirty : bool;
  mutable sh_always_unsorted : bool;
  (* first violation: node, priority (0 halted < 1 send), exception *)
  mutable sh_vnode : int;
  mutable sh_vprio : int;
  mutable sh_vexn : exn option;
  (* deferred on_message events, (src, dst, words), src-ascending *)
  mutable sh_ev_src : int array;
  mutable sh_ev_dst : int array;
  mutable sh_ev_w : int array;
  mutable sh_ev_len : int;
  sh_em : Emit.t;
}

(* A node partition and the shards built for it.  [local] marks the nodes
   whose out-ports all stay inside their own shard — every node at d = 1 —
   so [broadcast1] can take its lean loops. *)
type layout = {
  l_domains : int;
  shard_of : int array;
  local : Bytes.t;
  shards : shard array;
  xas : xarena array array; (* xas.(src shard).(dst shard) *)
}

type t = {
  g : Graph.t;
  n : int;
  ports : int;  (* 2m directed slots *)
  out_off : int array;  (* n+1: slot range of each source *)
  out_dst : int array;  (* destination of each slot, strictly ascending per source *)
  in_off : int array;   (* n+1: in-port range of each destination *)
  in_slot : int array;  (* slots delivering to v, sender-ascending *)
  in_src : int array;   (* sender of in_slot.(j) *)
  side_a : side;
  side_b : side;
  (* per-node scheduling state, shared across shards (one owner each) *)
  is_live : bool array;
  is_always : bool array;
  wake_at : int array;  (* pending timer round per node, -1 = none *)
  fstamp : int array;   (* fstamp.(v) = r  <=>  v already in round r's frontier *)
  mutable layout : layout option;
      (* the contiguous layout of the last [exec] without a partition,
         reused while the domain count stays the same *)
  mutable running : bool;
  mutable dirty : bool; (* the last run aborted: the sides need a scrub *)
}

let make_side ~n ~ports =
  {
    data = Bytes.empty;
    wire = Array.make (max 1 ports) (-1);
    wlog = Array.make (max 1 ports) 0;
    count = Array.make (max 1 n) 0;
  }

(* Arena stride for a given per-message word budget: every logical word
   needs at most [Codec.max_wire_words] 16-bit wire words, plus room for
   the one CRC guard word per frame when integrity guards are on. *)
let stride_for ?(guard = false) ~max_words () =
  (2 * Codec.max_wire_words * max 1 max_words)
  + if guard then 2 * Codec.guard_words else 0

let ensure_arena side ~ports ~stride =
  let need = max 2 (ports * stride) in
  if Bytes.length side.data < need then side.data <- Bytes.create need

let create g =
  let n = Graph.n g in
  let ports = 2 * Graph.m g in
  let out_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    out_off.(v + 1) <- out_off.(v) + Graph.degree g v
  done;
  let out_dst = Array.make (max 1 ports) (-1) in
  for v = 0 to n - 1 do
    let base = out_off.(v) in
    Array.iteri (fun i (u, _) -> out_dst.(base + i) <- u) (Graph.neighbors g v)
  done;
  (* The send path binary-searches each source's [out_dst] segment, so the
     port map is only correct on simple graphs: per source the destinations
     must be strictly ascending.  {!Graph} guarantees this for its public
     constructors; verify anyway so a duplicated (src, dst) port can never
     be silently shadowed (with the old hashtable map the last duplicate
     won), and so self-loops cannot alias a slot to its own inbox. *)
  for v = 0 to n - 1 do
    let base = out_off.(v) and stop = out_off.(v + 1) in
    for s = base to stop - 1 do
      if out_dst.(s) = v then
        invalid_arg (Printf.sprintf "Engine.create: self-loop at node %d" v);
      if s > base && out_dst.(s) = out_dst.(s - 1) then
        raise (Duplicate_edge { src = v; dst = out_dst.(s) });
      if s > base && out_dst.(s) < out_dst.(s - 1) then
        invalid_arg
          (Printf.sprintf "Engine.create: adjacency of node %d not sorted" v)
    done
  done;
  let in_off = Array.make (n + 1) 0 in
  for s = 0 to ports - 1 do
    let d = out_dst.(s) in
    in_off.(d + 1) <- in_off.(d + 1) + 1
  done;
  for v = 0 to n - 1 do
    in_off.(v + 1) <- in_off.(v + 1) + in_off.(v)
  done;
  let in_slot = Array.make (max 1 ports) 0 in
  let in_src = Array.make (max 1 ports) 0 in
  let fill = Array.copy in_off in
  (* sources visited in ascending id, so each in-port list comes out
     sender-ascending — this is the inbox ordering guarantee *)
  for v = 0 to n - 1 do
    for s = out_off.(v) to out_off.(v + 1) - 1 do
      let d = out_dst.(s) in
      in_slot.(fill.(d)) <- s;
      in_src.(fill.(d)) <- v;
      fill.(d) <- fill.(d) + 1
    done
  done;
  {
    g;
    n;
    ports;
    out_off;
    out_dst;
    in_off;
    in_slot;
    in_src;
    side_a = make_side ~n ~ports;
    side_b = make_side ~n ~ports;
    is_live = Array.make (max 1 n) false;
    is_always = Array.make (max 1 n) false;
    wake_at = Array.make (max 1 n) (-1);
    fstamp = Array.make (max 1 n) (-1);
    layout = None;
    running = false;
    dirty = false;
  }

let graph e = e.g
let port_count e = e.ports
let degree e v = e.out_off.(v + 1) - e.out_off.(v)

let iter_neighbors e v f =
  for s = e.out_off.(v) to e.out_off.(v + 1) - 1 do
    f e.out_dst.(s)
  done

(* Binary search over the per-source sorted CSR segment: O(log deg src), no
   hashing, no O(m) side table.  Any [dst] outside the segment — including
   ids outside [0, n) — comes back as -1. *)
let find_port e ~src ~dst =
  if src < 0 || src >= e.n then -1
  else begin
    let lo = ref e.out_off.(src) and hi = ref e.out_off.(src + 1) in
    let res = ref (-1) in
    while !res < 0 && !lo < !hi do
      let mid = !lo + ((!hi - !lo) / 2) in
      let d = e.out_dst.(mid) in
      if d = dst then res := mid else if d < dst then lo := mid + 1 else hi := mid
    done;
    !res
  end

(* ------------------------------------------------------------------ *)
(* Topology churn: a deterministic schedule of permanent node fail-stops
   and directed-edge down/up events, compiled against the engine's port map
   into a mutable liveness view.  The CSR arrays are never rebuilt — a dead
   port merely drops the frames routed through it, and a crashed node's
   slots are skipped like any other empty slot by the arena inbox fill. *)
module Churn = struct
  type event =
    | Crash of { node : int; at : int }
    | Edge_down of { src : int; dst : int; at : int }
    | Edge_up of { src : int; dst : int; at : int }
    | Edge_add of { src : int; dst : int; at : int }
    | Arrive of { node : int; at : int }
    | Depart of { node : int; at : int }

  let round_of = function
    | Crash { at; _ } | Edge_down { at; _ } | Edge_up { at; _ }
    | Edge_add { at; _ } | Arrive { at; _ } | Depart { at; _ } -> at

  (* Pre-resolved form: the port lookup happens once, at compile time. *)
  type op =
    | Op_crash of int
    | Op_down of int
    | Op_up of int
    | Op_add of int
    | Op_arrive of int
    | Op_depart of int

  type delta = {
    d_crashed : int;
    d_arrived : int;
    d_departed : int;
    d_inserted : int;
  }

  let no_delta = { d_crashed = 0; d_arrived = 0; d_departed = 0; d_inserted = 0 }

  type engine = t

  type t = {
    eng : engine;          (* the compiling engine, for (src, dst) lookups *)
    events : event array;  (* sorted by round, compile-order stable *)
    ops : op array;        (* events.(i) resolved against the port map *)
    crashed : bool array;  (* n: current liveness view *)
    dormant : bool array;  (* n: reserved node not yet arrived *)
    edge_down : bool array;  (* ports: current per-slot view *)
    mutable cursor : int;
  }

  let compile e events =
    let n = e.n in
    let check_node what node =
      if node < 0 || node >= n then
        invalid_arg (Printf.sprintf "Engine.Churn: %s of non-node %d" what node)
    in
    let check_round at =
      if at < 0 then
        invalid_arg (Printf.sprintf "Engine.Churn: event at negative round %d" at)
    in
    let resolve ev =
      match ev with
      | Crash { node; at } ->
        check_node "crash" node;
        check_round at;
        Op_crash node
      | Arrive { node; at } ->
        check_node "arrival" node;
        check_round at;
        Op_arrive node
      | Depart { node; at } ->
        check_node "departure" node;
        check_round at;
        Op_depart node
      | Edge_down { src; dst; at } | Edge_up { src; dst; at }
      | Edge_add { src; dst; at } ->
        check_round at;
        let slot = find_port e ~src ~dst in
        if slot < 0 then
          invalid_arg
            (Printf.sprintf "Engine.Churn: event on non-edge (%d, %d)" src dst);
        (match ev with
        | Edge_down _ -> Op_down slot
        | Edge_add _ -> Op_add slot
        | _ -> Op_up slot)
    in
    let tagged = List.mapi (fun i ev -> (round_of ev, i, ev)) events in
    let sorted =
      List.sort (fun (r1, i1, _) (r2, i2, _) -> compare (r1, i1) (r2, i2)) tagged
    in
    let events = Array.of_list (List.map (fun (_, _, ev) -> ev) sorted) in
    {
      eng = e;
      events;
      ops = Array.map resolve events;
      crashed = Array.make (max 1 n) false;
      dormant = Array.make (max 1 n) false;
      edge_down = Array.make (max 1 e.ports) false;
      cursor = 0;
    }

  (* A schedule's round-0 view: reserved capacity starts absent.  A slot
     with a pending [Edge_add] is down until the event fires; a node with a
     pending [Arrive] is dormant until it fires — the union CSR carries
     them from the start, the liveness view hides them. *)
  let reset t =
    Array.fill t.crashed 0 (Array.length t.crashed) false;
    Array.fill t.dormant 0 (Array.length t.dormant) false;
    Array.fill t.edge_down 0 (Array.length t.edge_down) false;
    Array.iter
      (function
        | Op_add slot -> t.edge_down.(slot) <- true
        | Op_arrive v -> t.dormant.(v) <- true
        | _ -> ())
      t.ops;
    t.cursor <- 0

  let crashed t v = t.crashed.(v)
  let dormant t v = t.dormant.(v)

  let edge_down t ~src ~dst =
    let slot = find_port t.eng ~src ~dst in
    slot >= 0 && t.edge_down.(slot)

  (* Advance the cursor through every event due by [round], updating the
     liveness views, and call a hook for each event that takes effect:
     [kill v] for a crash or departure (a graceful departure is
     mechanically a fail-stop, but counted separately), [arrive v] for an
     arrival, [cut slot] for an edge going down.  Returns the per-kind
     counts of the events that took effect. *)
  let apply t ~round ~kill ~arrive ~cut =
    let len = Array.length t.ops in
    let d = ref no_delta in
    while t.cursor < len && round_of t.events.(t.cursor) <= round do
      (match t.ops.(t.cursor) with
      | Op_crash v ->
        if not t.crashed.(v) then begin
          t.crashed.(v) <- true;
          d := { !d with d_crashed = !d.d_crashed + 1 };
          kill v
        end
      | Op_depart v ->
        if not t.crashed.(v) then begin
          t.crashed.(v) <- true;
          d := { !d with d_departed = !d.d_departed + 1 };
          kill v
        end
      | Op_arrive v ->
        if t.dormant.(v) then begin
          t.dormant.(v) <- false;
          d := { !d with d_arrived = !d.d_arrived + 1 };
          arrive v
        end
      | Op_down slot ->
        if not t.edge_down.(slot) then begin
          t.edge_down.(slot) <- true;
          cut slot
        end
      | Op_up slot -> t.edge_down.(slot) <- false
      | Op_add slot ->
        (* reserved capacity coming online: the slot was pre-downed at
           reset, nothing can be in flight through it *)
        if t.edge_down.(slot) then begin
          t.edge_down.(slot) <- false;
          d := { !d with d_inserted = !d.d_inserted + 1 }
        end);
      t.cursor <- t.cursor + 1
    done;
    !d

  let advance t ~round = apply t ~round ~kill:ignore ~arrive:ignore ~cut:ignore

  (* Replay the whole schedule, regardless of when the run stopped: the
     oracle judges eventual k-domination against the post-churn topology.
     In a full replay every scheduled arrival and insertion fires, so a
     node is finally dead iff it ever crashes or departs (both permanent),
     and an edge is finally down iff its last down/up/add event is a
     down. *)
  let final_alive t =
    let alive = Array.make (Array.length t.crashed) true in
    Array.iter
      (function
        | Crash { node; _ } | Depart { node; _ } -> alive.(node) <- false
        | _ -> ())
      t.events;
    alive

  let final_edges_down t =
    let down = Hashtbl.create 8 in
    Array.iter
      (function
        | Edge_down { src; dst; _ } -> Hashtbl.replace down (src, dst) ()
        | Edge_up { src; dst; _ } | Edge_add { src; dst; _ } ->
          Hashtbl.remove down (src, dst)
        | Crash _ | Arrive _ | Depart _ -> ())
      t.events;
    Hashtbl.fold (fun e () acc -> e :: acc) down [] |> List.sort compare
end

(* ------------------------------------------------------------------ *)
(* Wire corruption: a deterministic model of a lying network.  Frames in
   flight are garbled (bursts of bit flips on the packed wire words) or
   truncated, and every decision is a pure hash of (cseed, delivery
   round, slot, lane): the verdict for a frame does not depend on
   iteration order, so every domain count and the reference simulator
   corrupt — and drop — exactly the same frames.  Enabling corruption
   forces the codec guard word onto every frame; the delivery pass
   verifies each garbled frame and kills what the guard catches, so
   algorithm code never decodes a lying byte.  (An undetected error
   needs an even-weight pattern spread over 17+ bits that also collides
   the CRC *and* stays structurally decodable: probability under 2^-16
   per corrupted frame; the structural check keeps even that case from
   crashing the decoder.) *)
module Corrupt = struct
  type counters = {
    mutable injected : int;  (* frames garbled or truncated in flight *)
    mutable detected : int;  (* garbled frames the guard word caught *)
    mutable truncated : int; (* truncations (always detected) *)
  }

  type spec = {
    flip : float;     (* per-wire-word garble probability *)
    burst : int;      (* consecutive wire words garbled per hit, >= 1 *)
    truncate : float; (* per-frame truncation probability *)
    ramp : (int * float) list;
        (* (round, intensity) steps, ascending: the probabilities are
           multiplied by the last step at or before the current round
           (1.0 before the first step).  Chaos storms use this to ramp
           intensity up and carve quiescent windows out. *)
    cseed : int;
    tally : counters; (* reset by [exec] at the start of each run *)
  }

  let make ?(flip = 0.) ?(burst = 1) ?(truncate = 0.) ?(ramp = []) ~seed () =
    let tally = { injected = 0; detected = 0; truncated = 0 } in
    { flip; burst; truncate; ramp; cseed = seed; tally }

  let validate s =
    let prob what p =
      if not (p >= 0. && p <= 1.) then
        invalid_arg
          (Printf.sprintf "Engine.Corrupt: %s %g not in [0, 1]" what p)
    in
    prob "flip probability" s.flip;
    prob "truncate probability" s.truncate;
    if s.burst < 1 then
      invalid_arg (Printf.sprintf "Engine.Corrupt: burst %d < 1" s.burst);
    let last = ref (-1) in
    List.iter
      (fun (r, m) ->
        if r < 0 then
          invalid_arg
            (Printf.sprintf "Engine.Corrupt: ramp step at negative round %d" r);
        if r <= !last then
          invalid_arg "Engine.Corrupt: ramp rounds not strictly ascending";
        if m < 0. then
          invalid_arg
            (Printf.sprintf "Engine.Corrupt: negative ramp intensity %g" m);
        last := r)
      s.ramp

  (* every executor's entry: validate, then zero the tally for the run *)
  let arm s =
    validate s;
    s.tally.injected <- 0;
    s.tally.detected <- 0;
    s.tally.truncated <- 0

  let intensity s ~round =
    let m = ref 1.0 in
    List.iter (fun (r, mult) -> if r <= round then m := mult) s.ramp;
    !m

  (* SplitMix-style finalizer over OCaml's 63-bit ints (multiplies wrap
     mod 2^63; the constants are odd and fit the int range). *)
  let mix z =
    let z = z * 0x2545F4914F6CDD1D in
    let z = z lxor (z lsr 29) in
    let z = z * 0x1D8E4E27C47D124F in
    let z = z lxor (z lsr 32) in
    z land max_int

  let decide ~cseed ~round ~slot ~lane =
    mix (mix (mix (cseed + round) + slot) + lane)

  (* probabilities compare the hash's low 32 bits against an integer
     threshold, so the verdict is float-rounding-free and identical
     everywhere *)
  let threshold p =
    let p = if p < 0. then 0. else if p > 1. then 1. else p in
    int_of_float (p *. 4294967296.)

  let hit h thr = h land 0xFFFFFFFF < thr

  (* a garble mask is never zero: a hit always changes its word *)
  let mask h =
    let m = (h lsr 24) land 0xFFFF in
    if m = 0 then 1 else m
end

(* ------------------------------------------------------------------ *)
(* The round loop.  Every execution runs through [exec_core], with the
   node set partitioned into [d] shards stepped on [d] OCaml 5 domains;
   [d = 1] is simply the one-shard case, stepped on the calling domain.
   The round structure is

     serial: buffer swap, churn application, corruption, halted-receiver
       minimum
     phase A: each shard steps its own frontier in ascending node id;
       intra-shard frames land directly in the send buffer, cross-shard
       frames are appended to a per-(src-shard, dst-shard) slot list
     serial: violation resolution, deferred sink dispatch, round record
     phase B: each destination shard drains the slot lists addressed to
       it in src-shard order

   Determinism does not depend on scheduling: every mutable cell is owned
   by exactly one shard within a phase (slots by their unique sender in
   phase A, receive counts by the destination, node state by the owner),
   the slot lists are filled in each source's deterministic stepping order
   and drained in fixed src-shard order, and the buffers are slot-indexed
   so final contents are independent of drain interleaving.  Sink
   callbacks are deferred to the barrier and replayed in ascending source
   id — the order one shard emits them in — so instrumented runs are
   identical at every d.

   Violations cannot abort mid-phase without racing the other shards, so
   each shard records its first violation (the node it fired at, plus a
   priority bit ordering the halted-receiver check before the send checks
   at the same node) and stops stepping; the barrier re-raises the
   lexicographically smallest one — exactly the violation a single
   ascending sweep hits first. *)

exception Stop_shard

(* In-place heapsort of [a.(0) .. a.(len-1)]: nodes are stepped in
   ascending id (the reference's visiting order), but the frontier's two
   sources — timer buckets, receiver stack — append out of order, and so
   do re-entries and arrivals on the Always list.  Heapsort keeps the cost a guaranteed O(f log f) with zero
   allocation — [sift] is top level, since a local helper closing over
   [a] would be a closure allocated on every sort.  The [int array]
   annotations matter: left polymorphic, every comparison would be a
   [caml_compare] call. *)
let rec sift (a : int array) r stop =
  let child = (2 * r) + 1 in
  if child < stop then begin
    let c = if child + 1 < stop && a.(child + 1) > a.(child) then child + 1 else child in
    if a.(c) > a.(r) then begin
      let tmp = a.(c) in
      a.(c) <- a.(r);
      a.(r) <- tmp;
      sift a c stop
    end
  end

let sort_prefix (a : int array) len =
  if len > 1 then begin
    for root = (len / 2) - 1 downto 0 do
      sift a root len
    done;
    for stop = len - 1 downto 1 do
      let tmp = a.(0) in
      a.(0) <- a.(stop);
      a.(stop) <- tmp;
      sift a 0 stop
    done
  end

let contiguous_partition ~n ~shards =
  let shard_of = Array.make (max 1 n) 0 in
  for s = 0 to shards - 1 do
    for v = s * n / shards to ((s + 1) * n / shards) - 1 do
      shard_of.(v) <- s
    done
  done;
  shard_of

let make_sbuf ~wcap ~cap =
  {
    s_written = Array.make wcap 0;
    s_wlen = 0;
    s_active = Array.make cap 0;
    s_alen = 0;
    s_total = 0;
    s_words = 0;
    s_bits = 0;
  }

let build_layout e ~d shard_of =
  let n = e.n in
  let sizes = Array.make d 0 in
  let inports = Array.make d 0 in
  let max_indeg = Array.make d 0 in
  for v = 0 to n - 1 do
    let s = shard_of.(v) in
    sizes.(s) <- sizes.(s) + 1;
    let indeg = e.in_off.(v + 1) - e.in_off.(v) in
    inports.(s) <- inports.(s) + indeg;
    if indeg > max_indeg.(s) then max_indeg.(s) <- indeg
  done;
  let local = Bytes.make (max 1 n) '\001' in
  if d > 1 then
    for v = 0 to n - 1 do
      for slot = e.out_off.(v) to e.out_off.(v + 1) - 1 do
        if shard_of.(e.out_dst.(slot)) <> shard_of.(v) then
          Bytes.set local v '\000'
      done
    done;
  let shards =
    Array.init d (fun s ->
        let cap = max 1 sizes.(s) in
        (* every slot written for this shard delivers to one of its nodes,
           so the written-stack capacity is its in-port count *)
        let wcap = max 1 inports.(s) in
        {
          sh_nlive = 0;
          sh_frontier = Array.make cap 0;
          sh_plen = 0;
          sh_always = Array.make cap 0;
          sh_alen = 0;
          sh_timers = Timers.create ();
          sh_ib = Inbox.create ~cap:(max 1 max_indeg.(s)) ();
          sh_dv = make_sbuf ~wcap ~cap;
          sh_sd = make_sbuf ~wcap ~cap;
          sh_stepped = 0;
          sh_woken = 0;
          sh_receivers = 0;
          sh_delivered_words = 0;
          sh_delivered_bits = 0;
          sh_emitted = 0;
          sh_send_dropped = 0;
          sh_vmin = -1;
          sh_hit = false;
          sh_always_dirty = false;
          sh_always_unsorted = false;
          sh_vnode = -1;
          sh_vprio = 0;
          sh_vexn = None;
          sh_ev_src = [||];
          sh_ev_dst = [||];
          sh_ev_w = [||];
          sh_ev_len = 0;
          sh_em = Emit.make ();
        })
  in
  let xas =
    Array.init d (fun _ -> Array.init d (fun _ -> { x_slot = [||]; x_len = 0 }))
  in
  { l_domains = d; shard_of; local; shards; xas }

(* The layout for this run: a caller's partition is validated and built
   fresh; the contiguous one is cached on the engine, so repeated runs at
   one domain count build nothing. *)
let layout_for e ~domains ~partition =
  let n = e.n in
  let d = max 1 (min domains (max 1 n)) in
  match partition with
  | Some p ->
    if Array.length p <> n then
      invalid_arg "Engine.exec_emit: partition length differs from node count";
    Array.iter
      (fun s ->
        if s < 0 || s >= d then
          invalid_arg "Engine.exec_emit: partition shard id out of range")
      p;
    build_layout e ~d p
  | None -> (
    match e.layout with
    | Some l when l.l_domains = d -> l
    | _ ->
      let l = build_layout e ~d (contiguous_partition ~n ~shards:d) in
      e.layout <- Some l;
      l)

let reset_sbuf b =
  b.s_wlen <- 0;
  b.s_alen <- 0;
  b.s_total <- 0;
  b.s_words <- 0;
  b.s_bits <- 0

(* Rewind a shard's run state; an aborted run may leave any of it set,
   including an open frame on the emitter. *)
let reset_shard sh =
  sh.sh_nlive <- 0;
  sh.sh_plen <- 0;
  sh.sh_alen <- 0;
  Timers.clear sh.sh_timers;
  reset_sbuf sh.sh_dv;
  reset_sbuf sh.sh_sd;
  sh.sh_vmin <- -1;
  sh.sh_hit <- false;
  sh.sh_always_dirty <- false;
  sh.sh_always_unsorted <- false;
  sh.sh_vnode <- -1;
  sh.sh_vprio <- 0;
  sh.sh_vexn <- None;
  sh.sh_ev_len <- 0;
  sh.sh_em.Emit.eopen <- false

(* Receiver-side bookkeeping of one frame landing in [side] for shard
   buffer [b]: the sender publishes intra-shard frames with it, the
   destination shard drains cross-shard ones with it at phase B. *)
let land_frame b side slot u w wire =
  b.s_written.(b.s_wlen) <- slot;
  b.s_wlen <- b.s_wlen + 1;
  let c = side.count.(u) in
  if c = 0 then begin
    b.s_active.(b.s_alen) <- u;
    b.s_alen <- b.s_alen + 1
  end;
  side.count.(u) <- c + 1;
  b.s_total <- b.s_total + 1;
  b.s_words <- b.s_words + w;
  b.s_bits <- b.s_bits + (word_bits * wire)

(* Drop the in-flight frame in [slot] from the delivery side (churn or
   corruption killed it). *)
let drop_frame b side slot u wv =
  side.wire.(slot) <- -1;
  b.s_total <- b.s_total - 1;
  b.s_words <- b.s_words - side.wlog.(slot);
  b.s_bits <- b.s_bits - (word_bits * wv);
  side.count.(u) <- side.count.(u) - 1

(* Copy a [wire]-word frame from [src] to [dst] at [off]: the 1- and
   2-word (guarded one-word) broadcast frames skip the blit call. *)
let copy_frame src dst off wire =
  if wire = 1 then Bytes.set_uint16_le dst off (Bytes.get_uint16_le src 0)
  else if wire = 2 then Bytes.set_int32_le dst off (Bytes.get_int32_le src 0)
  else Bytes.blit src 0 dst off (2 * wire)

let exec_core ?max_rounds ?max_words ?(sink = Sink.null) ?churn
    ?(guard = false) ?corrupt ~domains ?partition e algo =
  let n = e.n in
  let g = e.g in
  (match churn with
  | Some (c : Churn.t) ->
    if Array.length c.Churn.crashed <> max 1 n
       || Array.length c.Churn.edge_down <> max 1 e.ports
    then invalid_arg "Engine.exec_emit: churn compiled against a different engine";
    Churn.reset c
  | None -> ());
  Option.iter Corrupt.arm corrupt;
  (* corruption is only detectable with the guard word on every frame *)
  let guard = guard || corrupt <> None in
  let max_rounds =
    match max_rounds with Some r -> r | None -> default_max_rounds n
  in
  let max_words =
    match max_words with Some w -> w | None -> default_max_words n
  in
  let { l_domains = d; shard_of; local; shards; xas } =
    layout_for e ~domains ~partition
  in
  if e.dirty then
    (* a previous run aborted mid-round (violation / limit): frames it left
       in either direction of the buffer must not leak into this one *)
    List.iter
      (fun side ->
        Array.fill side.wire 0 (Array.length side.wire) (-1);
        Array.fill side.count 0 (Array.length side.count) 0)
      [ e.side_a; e.side_b ];
  e.running <- true;
  e.dirty <- true;
  Array.iter reset_shard shards;
  Array.iter (Array.iter (fun xa -> xa.x_len <- 0)) xas;
  let stride = stride_for ~guard ~max_words () in
  ensure_arena e.side_a ~ports:e.ports ~stride;
  ensure_arena e.side_b ~ports:e.ports ~stride;
  let states = Array.init n (fun v -> algo.einit g v) in
  let a_halted = algo.ehalted and a_wake = algo.ewake in
  let is_live = e.is_live and is_always = e.is_always in
  let wake_at = e.wake_at and fstamp = e.fstamp in
  Array.fill fstamp 0 (max 1 n) (-1);
  Array.fill wake_at 0 (max 1 n) (-1);
  (* [dside] is the delivery side of the round being stepped, [sside] the
     side it sends into; swapped at the top of every round *)
  let dside = ref e.side_b and sside = ref e.side_a in
  let xpush xa slot =
    let cap = Array.length xa.x_slot in
    if xa.x_len = cap then begin
      let ns = Array.make (max 8 (2 * cap)) 0 in
      Array.blit xa.x_slot 0 ns 0 cap;
      xa.x_slot <- ns
    end;
    xa.x_slot.(xa.x_len) <- slot;
    xa.x_len <- xa.x_len + 1
  in
  let instrumented = sink != Sink.null in
  let evpush sh src dst w =
    let cap = Array.length sh.sh_ev_src in
    if sh.sh_ev_len = cap then begin
      let ncap = max 16 (2 * cap) in
      let a = Array.make ncap 0 and b = Array.make ncap 0 and c = Array.make ncap 0 in
      Array.blit sh.sh_ev_src 0 a 0 cap;
      Array.blit sh.sh_ev_dst 0 b 0 cap;
      Array.blit sh.sh_ev_w 0 c 0 cap;
      sh.sh_ev_src <- a;
      sh.sh_ev_dst <- b;
      sh.sh_ev_w <- c
    end;
    sh.sh_ev_src.(sh.sh_ev_len) <- src;
    sh.sh_ev_dst.(sh.sh_ev_len) <- dst;
    sh.sh_ev_w.(sh.sh_ev_len) <- w;
    sh.sh_ev_len <- sh.sh_ev_len + 1
  in
  let round = ref 0 in
  (* replay deferred on_message events in ascending source id.
     [limit]/[owner] truncate the replay to what an ascending sweep emitted
     before raising at node [limit]: everything from sources below it,
     plus the violating shard's own events at the violating node. *)
  let emit_events ~round ~limit ~owner =
    let idx = Array.make d 0 in
    let continue = ref true in
    while !continue do
      let best = ref (-1) in
      let best_src = ref max_int in
      for s = 0 to d - 1 do
        let sh = shards.(s) in
        if idx.(s) < sh.sh_ev_len then begin
          let src = sh.sh_ev_src.(idx.(s)) in
          if (src < limit || (src = limit && s = owner)) && src < !best_src
          then begin
            best := s;
            best_src := src
          end
        end
      done;
      if !best < 0 then continue := false
      else begin
        let sh = shards.(!best) in
        let i = idx.(!best) in
        sink.on_message ~round ~src:sh.sh_ev_src.(i) ~dst:sh.sh_ev_dst.(i)
          ~words:sh.sh_ev_w.(i);
        idx.(!best) <- i + 1
      end
    done
  in
  (* Hoisted churn views: the empty arrays are never indexed (short-circuit
     on [churn_on]), so the churn-free send path costs one extra branch. *)
  let churn_edge_down, churn_crashed, churn_dormant =
    match churn with
    | Some (c : Churn.t) ->
      (c.Churn.edge_down, c.Churn.crashed, c.Churn.dormant)
    | None -> ([||], [||], [||])
  in
  let churn_on = churn <> None in
  (* Put node [v] in the schedule in Always mode: hints are consulted only
     after a step, so the init round, and an arrival's round, step it
     regardless. *)
  let enlist v =
    let sh = shards.(shard_of.(v)) in
    is_live.(v) <- true;
    is_always.(v) <- true;
    sh.sh_nlive <- sh.sh_nlive + 1;
    sh.sh_always.(sh.sh_alen) <- v;
    sh.sh_alen <- sh.sh_alen + 1
  in
  (* Initial liveness; visiting the nodes in ascending id leaves each
     Always list sorted. *)
  for v = 0 to n - 1 do
    if (not (a_halted states.(v))) && not (churn_on && churn_dormant.(v))
    then enlist v
    else begin
      is_live.(v) <- false;
      is_always.(v) <- false
    end
  done;
  (* the halted-receiver minimum, written serially, read by phase A *)
  let vmin_flag = ref (-1) in
  let messages = ref 0 and max_inflight = ref 0 in
  let live_total = ref 0 in
  Array.iter (fun sh -> live_total := !live_total + sh.sh_nlive) shards;
  let pending_next = ref 0 in
  let schedule sh v k =
    wake_at.(v) <- k;
    Timers.push sh.sh_timers k v
  in
  let apply_wake sh v st r =
    match a_wake st with
    | Always ->
      if not is_always.(v) then begin
        is_always.(v) <- true;
        sh.sh_always.(sh.sh_alen) <- v;
        sh.sh_alen <- sh.sh_alen + 1;
        sh.sh_always_unsorted <- true
      end;
      wake_at.(v) <- -1
    | hint ->
      if is_always.(v) then begin
        is_always.(v) <- false;
        sh.sh_always_dirty <- true
      end;
      (match hint with
      | Next -> schedule sh v (r + 1)
      | At k -> if k > r then schedule sh v k else wake_at.(v) <- -1
      | OnMessage -> wake_at.(v) <- -1
      | Always -> assert false)
  in
  (* Record shard [sh]'s first violation and return the exception that
     stops it.  Call sites [raise] the result, so the compiler sees the
     violation path end there and keeps hot-loop values out of the
     stack. *)
  let record sh v prio exn =
    sh.sh_vnode <- v;
    sh.sh_vprio <- prio;
    sh.sh_vexn <- Some exn;
    Stop_shard
  in
  let dead slot u =
    churn_edge_down.(slot) || churn_crashed.(u) || churn_dormant.(u)
  in
  let sent_twice sh v u =
    record sh v 1
      (Congestion_violation
         (Printf.sprintf "round %d: node %d sent twice over edge to %d" !round
            v u))
  in
  (* Publish a frame the sender [v] of shard [s] has encoded into [slot]:
     intra-shard frames land at once, cross-shard ones get a slot push for
     the destination to land at phase B. *)
  let publish sh s v slot u w wire =
    let sd = !sside in
    sd.wire.(slot) <- wire;
    sd.wlog.(slot) <- w;
    let tgt = shard_of.(u) in
    if tgt = s then land_frame sh.sh_sd sd slot u w wire
    else xpush xas.(s).(tgt) slot;
    sh.sh_emitted <- sh.sh_emitted + 1;
    if instrumented then evpush sh v u w
  in
  (* Per-shard emitters.  [start] performs the send checks (non-neighbor,
     then churn-dead, then duplicate edge) and positions the writer on the
     slot's arena region in the shared send side, which only this slot's
     sender writes; the width is enforced by the writer budget as the frame
     is built; [commit] publishes the slot. *)
  Array.iteri
    (fun s sh ->
      let em = sh.sh_em in
      em.Emit.estart <-
        (fun t u ->
          if t.Emit.eopen then
            invalid_arg "Engine.Emit.start: frame already open";
          let v = t.Emit.enode in
          let slot = find_port e ~src:v ~dst:u in
          if slot < 0 then
            raise
              (record sh v 1
                 (Congestion_violation
                    (Printf.sprintf "round %d: node %d sent to non-neighbor %d"
                       !round v u)));
          let sd = !sside in
          if churn_on && dead slot u then
            (* frame onto a dead port or to a crashed node: build it (the
               width budget still applies) but never publish the slot *)
            t.Emit.edead <- true
          else begin
            if sd.wire.(slot) >= 0 then raise (sent_twice sh v u);
            t.Emit.edead <- false
          end;
          t.Emit.edst <- u;
          t.Emit.eslot <- slot;
          t.Emit.eopen <- true;
          Codec.attach_writer ~guard t.Emit.ew sd.data ~base:(slot * stride)
            ~budget:max_words;
          t.Emit.ew);
      em.Emit.ecommit <-
        (fun t ->
          if not t.Emit.eopen then
            invalid_arg "Engine.Emit.commit: no open frame";
          t.Emit.eopen <- false;
          if t.Emit.edead then sh.sh_send_dropped <- sh.sh_send_dropped + 1
          else begin
            let w = Codec.words t.Emit.ew in
            let wire = Codec.seal t.Emit.ew in
            publish sh s t.Emit.enode t.Emit.eslot t.Emit.edst w wire
          end);
      (* Broadcast fast path: encode the one-word frame once into a scratch
         region, then walk the sender's contiguous out-port segment — no
         per-neighbor binary search, no per-frame start/commit pair. *)
      let bscratch =
        Bytes.create (2 * (Codec.max_wire_words + Codec.guard_words))
      in
      (* Broadcast memo: consecutive [broadcast1] calls with the same value
         re-use the encoded scratch frame, so a flood round encodes (and
         CRCs, when the guard is on) once per shard instead of n times.
         Nothing else writes [bscratch], so the memo never goes stale. *)
      let bmemo_live = ref false and bmemo_a = ref 0 and bmemo_wire = ref 0 in
      em.Emit.ebroadcast1 <-
        (fun t a ->
          if t.Emit.eopen then
            invalid_arg "Engine.Emit.broadcast1: frame already open";
          let v = t.Emit.enode in
          if max_words < 1 then
            raise
              (record sh v 1
                 (Congestion_violation
                    (Printf.sprintf
                       "round %d: node %d payload of %d words exceeds %d"
                       !round v 1 max_words)));
          let wire =
            if !bmemo_live && !bmemo_a = a then !bmemo_wire
            else begin
              let w =
                if guard then Codec.encode1_guarded bscratch ~base:0 a
                else Codec.encode1 bscratch ~base:0 a
              in
              bmemo_live := true;
              bmemo_a := a;
              bmemo_wire := w;
              w
            end
          in
          let sd = !sside in
          let first = e.out_off.(v) and stop = e.out_off.(v + 1) in
          if (not churn_on) && Bytes.unsafe_get local v <> '\000' then begin
            (* Every slot of the segment is written and lands in this
               shard, so the totals are batched after the loop and the
               [written] cursor is [wbase + slot] — no loop-carried ref (a
               ref would be a per-step allocation on the zero-alloc path).
               Arrays are hoisted into locals: without flambda every
               [sd.field.(slot)] reloads the field inside the loop. *)
            let b = sh.sh_sd in
            let data = sd.data
            and swire = sd.wire
            and swlog = sd.wlog
            and count = sd.count
            and written = b.s_written
            and active = b.s_active
            and out_dst = e.out_dst in
            let wbase = b.s_wlen - first in
            if wire = 1 && not instrumented then begin
              (* the lean loop: a small value on an uninstrumented run is
                 one u16 store plus the minimum bookkeeping *)
              let g = Bytes.get_uint16_le bscratch 0 in
              for slot = first to stop - 1 do
                let u = out_dst.(slot) in
                if swire.(slot) >= 0 then raise (sent_twice sh v u);
                Bytes.set_uint16_le data (slot * stride) g;
                swire.(slot) <- 1;
                swlog.(slot) <- 1;
                written.(wbase + slot) <- slot;
                let c = count.(u) in
                if c = 0 then begin
                  active.(b.s_alen) <- u;
                  b.s_alen <- b.s_alen + 1
                end;
                count.(u) <- c + 1
              done
            end
            else if wire = 2 && not instrumented then begin
              (* guarded lean loop: a one-word value plus its CRC guard
                 word is exactly one 32-bit store — the stride is always
                 at least [2 * max_wire_words] bytes, so the wide store
                 stays inside the slot's frame region *)
              let g = Bytes.get_int32_le bscratch 0 in
              for slot = first to stop - 1 do
                let u = out_dst.(slot) in
                if swire.(slot) >= 0 then raise (sent_twice sh v u);
                Bytes.set_int32_le data (slot * stride) g;
                swire.(slot) <- 2;
                swlog.(slot) <- 1;
                written.(wbase + slot) <- slot;
                let c = count.(u) in
                if c = 0 then begin
                  active.(b.s_alen) <- u;
                  b.s_alen <- b.s_alen + 1
                end;
                count.(u) <- c + 1
              done
            end
            else
              for slot = first to stop - 1 do
                let u = out_dst.(slot) in
                if swire.(slot) >= 0 then raise (sent_twice sh v u);
                copy_frame bscratch data (slot * stride) wire;
                swire.(slot) <- wire;
                swlog.(slot) <- 1;
                written.(wbase + slot) <- slot;
                let c = count.(u) in
                if c = 0 then begin
                  active.(b.s_alen) <- u;
                  b.s_alen <- b.s_alen + 1
                end;
                count.(u) <- c + 1;
                if instrumented then evpush sh v u 1
              done;
            let sent = stop - first in
            b.s_wlen <- b.s_wlen + sent;
            b.s_total <- b.s_total + sent;
            b.s_words <- b.s_words + sent;
            b.s_bits <- b.s_bits + (word_bits * wire * sent);
            sh.sh_emitted <- sh.sh_emitted + sent
          end
          else
            for slot = first to stop - 1 do
              let u = e.out_dst.(slot) in
              if churn_on && dead slot u then
                sh.sh_send_dropped <- sh.sh_send_dropped + 1
              else begin
                if sd.wire.(slot) >= 0 then raise (sent_twice sh v u);
                copy_frame bscratch sd.data (slot * stride) wire;
                publish sh s v slot u 1 wire
              end
            done))
    shards;
  (* The deferred in-port scan behind [Inbox.ensure]: a stepping node's
     inbox is only marked, and the scan runs on the first accessor call,
     so kernels that ignore their mail never pay for it.  Forward order is
     sender-ascending, preserving the inbox ordering guarantee. *)
  Array.iter
    (fun sh ->
      sh.sh_ib.Inbox.filler <-
        (fun ib ->
          let v = ib.Inbox.fill_node in
          ib.Inbox.fill_node <- -1;
          let dv = !dside in
          if dv.count.(v) > 0 then
            for j = e.in_off.(v) to e.in_off.(v + 1) - 1 do
              let slot = e.in_slot.(j) in
              if dv.wire.(slot) >= 0 then begin
                ib.Inbox.src.(ib.Inbox.len) <- e.in_src.(j);
                ib.Inbox.slot.(ib.Inbox.len) <- slot;
                ib.Inbox.len <- ib.Inbox.len + 1
              end
            done))
    shards;
  (* Take live node [v] of shard [sh] out of the schedule: it halted, or
     churn killed it. *)
  let retire sh v =
    is_live.(v) <- false;
    sh.sh_nlive <- sh.sh_nlive - 1;
    if is_always.(v) then begin
      is_always.(v) <- false;
      sh.sh_always_dirty <- true
    end;
    wake_at.(v) <- -1
  in
  (* Step one node of shard [sh] in round [!round].  Defined once per run,
     not per phase: a per-phase local closure would allocate every round. *)
  let step_node sh v =
    let r = !round in
    let v_min = !vmin_flag in
    if v_min >= 0 && v_min < v then
      raise
        (record sh v 0
           (Congestion_violation
              (Printf.sprintf "round %d: halted node %d received a message" r
                 v_min)));
    let ib = sh.sh_ib in
    ib.Inbox.len <- 0;
    ib.Inbox.fill_node <- v;
    let em = sh.sh_em in
    em.Emit.enode <- v;
    let st =
      try algo.estep g ~round:r ~node:v states.(v) ib em with
      | Stop_shard as exn -> raise exn
      | Codec.Width_exceeded { budget; words } ->
        raise
          (record sh v 1
             (Congestion_violation
                (Printf.sprintf
                   "round %d: node %d payload of %d words exceeds %d" r v words
                   budget)))
      | exn -> raise (record sh v 1 exn)
    in
    if em.Emit.eopen then begin
      em.Emit.eopen <- false;
      raise
        (record sh v 1
           (Invalid_argument "Engine.Emit: frame left open at end of step"))
    end;
    states.(v) <- st;
    if a_halted st then retire sh v else apply_wake sh v st r
  in
  (* frontier insertion for shard [sh], deduplicated per round *)
  let push sh v =
    if fstamp.(v) <> !round then begin
      fstamp.(v) <- !round;
      sh.sh_frontier.(sh.sh_plen) <- v;
      sh.sh_plen <- sh.sh_plen + 1
    end
  in
  (* phase A: step this shard for round [!round] — the merge, in ascending
     node id, of the Always list with the frontier of woken timers and
     non-Always receivers.  The two are disjoint: a pending timer belongs
     to a node whose last hint was [Next] or [At]. *)
  let phase_step s =
    let sh = shards.(s) in
    let r = !round in
    let dvb = sh.sh_dv in
    let dv = !dside in
    Inbox.attach sh.sh_ib ~data:dv.data ~wire:dv.wire ~wlog:dv.wlog ~stride;
    sh.sh_woken <- 0;
    sh.sh_emitted <- 0;
    sh.sh_send_dropped <- 0;
    sh.sh_ev_len <- 0;
    (* arrivals append to the Always list out of order *)
    if sh.sh_always_unsorted then begin
      sort_prefix sh.sh_always sh.sh_alen;
      sh.sh_always_unsorted <- false
    end;
    sh.sh_plen <- 0;
    let v = ref (Timers.pop sh.sh_timers r) in
    while !v >= 0 do
      (* lazy invalidation: a rescheduled or cancelled wake leaves a stale
         entry behind; only the latest hint counts *)
      if wake_at.(!v) = r then begin
        wake_at.(!v) <- -1;
        if is_live.(!v) then begin
          sh.sh_woken <- sh.sh_woken + 1;
          push sh !v
        end
      end;
      v := Timers.pop sh.sh_timers r
    done;
    for i = 0 to dvb.s_alen - 1 do
      let v = dvb.s_active.(i) in
      (* the count guard matters only under churn / corruption: a
         receiver whose whole inbox was dropped is not woken *)
      if (not is_always.(v)) && is_live.(v) && dv.count.(v) > 0 then push sh v
    done;
    sort_prefix sh.sh_frontier sh.sh_plen;
    (* a step that re-enters Always appends to the list, so only the
       entries present now are merged; a node churn crashed this round
       stays listed until the end-of-round compaction *)
    let plen = sh.sh_plen and alen = sh.sh_alen in
    let front = sh.sh_frontier and alist = sh.sh_always in
    let i = ref 0 and j = ref 0 and stepped = ref plen in
    (try
       while !i < plen && !j < alen do
         let f = front.(!i) and a = alist.(!j) in
         if f < a then begin
           step_node sh f;
           incr i
         end
         else begin
           if is_live.(a) then begin
             incr stepped;
             step_node sh a
           end;
           incr j
         end
       done;
       for k = !i to plen - 1 do
         step_node sh front.(k)
       done;
       for k = !j to alen - 1 do
         let a = alist.(k) in
         if is_live.(a) then begin
           incr stepped;
           step_node sh a
         end
       done
     with Stop_shard -> ());
    sh.sh_stepped <- !stepped;
    if sh.sh_vnode < 0 then begin
      (* receivers / delivered words before clearing; a receiver whose whole
         inbox was dropped received nothing *)
      sh.sh_receivers <-
        (if sh.sh_hit then begin
           let c = ref 0 in
           for i = 0 to dvb.s_alen - 1 do
             if dv.count.(dvb.s_active.(i)) > 0 then incr c
           done;
           !c
         end
         else dvb.s_alen);
      sh.sh_delivered_words <- dvb.s_words;
      sh.sh_delivered_bits <- dvb.s_bits;
      for j = 0 to dvb.s_wlen - 1 do
        dv.wire.(dvb.s_written.(j)) <- -1
      done;
      for i = 0 to dvb.s_alen - 1 do
        dv.count.(dvb.s_active.(i)) <- 0
      done;
      reset_sbuf dvb;
      if sh.sh_always_dirty || sh.sh_always_unsorted then begin
        let w = ref 0 in
        for i = 0 to sh.sh_alen - 1 do
          let v = sh.sh_always.(i) in
          if is_live.(v) && is_always.(v) then begin
            sh.sh_always.(!w) <- v;
            incr w
          end
        done;
        sh.sh_alen <- !w;
        if sh.sh_always_unsorted then sort_prefix sh.sh_always sh.sh_alen;
        sh.sh_always_dirty <- false;
        sh.sh_always_unsorted <- false
      end
    end
  in
  (* phase B: land the cross-shard slots addressed to this shard, in
     src-shard order; then compute the halted-receiver candidate the next
     round's serial section needs *)
  let phase_exchange t =
    let sh = shards.(t) in
    let svb = sh.sh_sd in
    let sd = !sside in
    for s = 0 to d - 1 do
      let xa = xas.(s).(t) in
      for i = 0 to xa.x_len - 1 do
        let slot = xa.x_slot.(i) in
        land_frame svb sd slot e.out_dst.(slot) sd.wlog.(slot) sd.wire.(slot)
      done;
      xa.x_len <- 0
    done;
    sh.sh_vmin <- -1;
    for i = 0 to svb.s_alen - 1 do
      let v = svb.s_active.(i) in
      if (not is_live.(v)) && sd.count.(v) > 0
         && (sh.sh_vmin < 0 || v < sh.sh_vmin)
      then sh.sh_vmin <- v
    done
  in
  (* The churn hooks, defined once per run (a closure built per round
     would allocate every round).  A crash or departure loses the frames
     in flight to the node, an edge going down the frame it carries, and
     an arrival is enlisted like an init-round node (out of order, so its
     Always list is sorted at the next phase start). *)
  let churn_dropped = ref 0 in
  let kill v =
    let sh = shards.(shard_of.(v)) in
    let dv = !dside in
    if dv.count.(v) > 0 then begin
      for j = e.in_off.(v) to e.in_off.(v + 1) - 1 do
        let slot = e.in_slot.(j) in
        let wv = dv.wire.(slot) in
        if wv >= 0 then begin
          drop_frame sh.sh_dv dv slot v wv;
          incr churn_dropped
        end
      done;
      sh.sh_hit <- true
    end;
    if is_live.(v) then retire sh v
  in
  let arrive v =
    if (not churn_crashed.(v)) && not (a_halted states.(v)) then begin
      enlist v;
      shards.(shard_of.(v)).sh_always_unsorted <- true
    end
  in
  let cut slot =
    let dv = !dside in
    let wv = dv.wire.(slot) in
    if wv >= 0 then begin
      let u = e.out_dst.(slot) in
      let sh = shards.(shard_of.(u)) in
      drop_frame sh.sh_dv dv slot u wv;
      incr churn_dropped;
      sh.sh_hit <- true
    end
  in
  (* Per-round counters of the corruption pass, declared once and reset
     every round (its kill closure captures them, so declared per round
     they would be heap-allocated every round). *)
  let corrupt_dropped = ref 0 and corrupt_killed = ref false in
  let body pool =
    while !live_total > 0 || !pending_next > 0 do
      if !round > max_rounds then raise (Round_limit_exceeded !round);
      let r = !round in
      let dv = !sside in
      sside := !dside;
      dside := dv;
      for s = 0 to d - 1 do
        let sh = shards.(s) in
        let b = sh.sh_sd in
        sh.sh_sd <- sh.sh_dv;
        sh.sh_dv <- b;
        sh.sh_hit <- false
      done;
      (* Apply the churn events due this round before anything is
         delivered: a node crashing at round r does not execute round r and
         the frames already in flight to it (sent at r-1) are lost; an edge
         going down at round r loses the frame it was carrying.  Frames a
         node sent before its crash are still delivered — the crash kills
         the processor, not the wires.  Churn is applied serially: it is
         rare, touches arbitrary shards, and must be globally ordered
         before the halted-receiver minimum. *)
      churn_dropped := 0;
      let delta = ref Churn.no_delta and churn_applied = ref false in
      (match churn with
      | Some c ->
        let cursor = c.Churn.cursor in
        delta := Churn.apply c ~round:r ~kill ~arrive ~cut;
        churn_applied := c.Churn.cursor <> cursor
      | None -> ());
      (* Deterministic wire corruption: a serial pass over the delivery-side
         written stacks, after churn (a frame churn killed cannot also be
         corrupted) and before the halted-receiver minimum (a corrupted
         frame to a halted node is dropped, never delivered).  Every
         decision is a pure (cseed, round, slot, lane) hash, so the pass is
         iteration-order-free and each kill touches only the destination
         shard's delivery buffer. *)
      corrupt_dropped := 0;
      corrupt_killed := false;
      (match corrupt with
      | Some (cs : Corrupt.spec) ->
        let inten = Corrupt.intensity cs ~round:r in
        let fthr = Corrupt.threshold (cs.Corrupt.flip *. inten) in
        let tthr = Corrupt.threshold (cs.Corrupt.truncate *. inten) in
        if fthr > 0 || tthr > 0 then begin
          let cseed = cs.Corrupt.cseed and burst = cs.Corrupt.burst in
          let tally = cs.Corrupt.tally in
          let ddata = dv.data in
          Array.iter
            (fun sh ->
              let dvb = sh.sh_dv in
              for j = 0 to dvb.s_wlen - 1 do
                let slot = dvb.s_written.(j) in
                let wv = dv.wire.(slot) in
                if wv >= 0 then begin
                  let kill () =
                    drop_frame dvb dv slot e.out_dst.(slot) wv;
                    sh.sh_hit <- true;
                    corrupt_killed := true;
                    incr corrupt_dropped
                  in
                  let h0 = Corrupt.decide ~cseed ~round:r ~slot ~lane:0 in
                  if tthr > 0 && Corrupt.hit h0 tthr && wv > 1 then begin
                    (* truncation shortens the frame below what its logical
                       words need: the decoder would raise Truncated_frame,
                       so it is always detected — drop at the recv path *)
                    tally.Corrupt.injected <- tally.Corrupt.injected + 1;
                    tally.Corrupt.truncated <- tally.Corrupt.truncated + 1;
                    kill ()
                  end
                  else if fthr > 0 then begin
                    let base = slot * stride in
                    let hitany = ref false in
                    for i = 0 to wv - 1 do
                      let h =
                        Corrupt.decide ~cseed ~round:r ~slot ~lane:(i + 1)
                      in
                      if Corrupt.hit h fthr then begin
                        hitany := true;
                        let stop = min (i + burst - 1) (wv - 1) in
                        for jj = i to stop do
                          let hm =
                            if jj = i then h
                            else
                              Corrupt.decide ~cseed ~round:r ~slot
                                ~lane:(wv + 1 + jj)
                          in
                          let off = base + (2 * jj) in
                          Bytes.set_uint16_le ddata off
                            (Bytes.get_uint16_le ddata off
                            lxor Corrupt.mask hm)
                        done
                      end
                    done;
                    if !hitany then begin
                      tally.Corrupt.injected <- tally.Corrupt.injected + 1;
                      let clean =
                        Codec.verify ddata ~base ~wire:wv
                        && Codec.well_formed ddata ~base
                             ~wire:(wv - Codec.guard_words)
                             ~words:dv.wlog.(slot)
                      in
                      if not clean then begin
                        tally.Corrupt.detected <- tally.Corrupt.detected + 1;
                        kill ()
                      end
                    end
                  end
                end
              done)
            shards
        end
      | None -> ());
      (* plain loops over the shards, here and below: an [Array.iter]
         closure capturing these refs would allocate both every round *)
      let this_round = ref 0 in
      let live_snapshot = ref 0 in
      for s = 0 to d - 1 do
        let sh = shards.(s) in
        this_round := !this_round + sh.sh_dv.s_total;
        live_snapshot := !live_snapshot + sh.sh_nlive
      done;
      max_inflight := max !max_inflight !this_round;
      messages := !messages + !this_round;
      (* [v_min] is the smallest halted node holding undeliverable mail: it
         competes with live-node send violations for the first offence *)
      let v_min = ref (-1) in
      if !churn_applied || !corrupt_killed then
        (* drops can only remove candidates, but removing the minimum
           exposes the next one: recompute from the surviving counts *)
        for s = 0 to d - 1 do
          let dvb = shards.(s).sh_dv in
          for i = 0 to dvb.s_alen - 1 do
            let v = dvb.s_active.(i) in
            if (not is_live.(v)) && dv.count.(v) > 0
               && (!v_min < 0 || v < !v_min)
            then v_min := v
          done
        done
      else
        for s = 0 to d - 1 do
          let sh = shards.(s) in
          if sh.sh_vmin >= 0 && (!v_min < 0 || sh.sh_vmin < !v_min) then
            v_min := sh.sh_vmin
        done;
      vmin_flag := !v_min;
      Pool.run pool phase_step;
      (* violation resolution: the lexicographically smallest (node,
         priority) is the one an ascending sweep would have raised *)
      let vs = ref (-1) in
      for s = 0 to d - 1 do
        let sh = shards.(s) in
        if sh.sh_vnode >= 0
           && (!vs < 0
              || sh.sh_vnode < shards.(!vs).sh_vnode
              || (sh.sh_vnode = shards.(!vs).sh_vnode
                 && sh.sh_vprio < shards.(!vs).sh_vprio))
        then vs := s
      done;
      if !vs >= 0 then begin
        let sh = shards.(!vs) in
        if instrumented then
          emit_events ~round:r ~limit:sh.sh_vnode ~owner:!vs;
        raise (Option.get sh.sh_vexn)
      end;
      if !v_min >= 0 then begin
        if instrumented then emit_events ~round:r ~limit:max_int ~owner:(-1);
        raise
          (Congestion_violation
             (Printf.sprintf "round %d: halted node %d received a message" r
                !v_min))
      end;
      if instrumented then begin
        emit_events ~round:r ~limit:max_int ~owner:(-1);
        (* sum the per-shard counters into one fresh vector, then add
           the whole-round ones (delivered, skipped, churn drops,
           crashes) from the serial section's global view *)
        let c = Array.make Sink.n_counters 0 in
        let add i x = c.(i) <- c.(i) + x in
        Array.iter
          (fun sh ->
            add Sink.words sh.sh_delivered_words;
            add Sink.bits sh.sh_delivered_bits;
            add Sink.receivers sh.sh_receivers;
            add Sink.stepped sh.sh_stepped;
            add Sink.woken sh.sh_woken;
            add Sink.sent sh.sh_emitted;
            add Sink.dropped sh.sh_send_dropped)
          shards;
        c.(Sink.delivered) <- !this_round;
        c.(Sink.skipped) <- !live_snapshot - c.(Sink.stepped);
        add Sink.dropped !churn_dropped;
        c.(Sink.corrupted) <- !corrupt_dropped;
        c.(Sink.crashed) <- !delta.Churn.d_crashed;
        c.(Sink.arrived) <- !delta.Churn.d_arrived;
        c.(Sink.departed) <- !delta.Churn.d_departed;
        c.(Sink.inserted) <- !delta.Churn.d_inserted;
        sink.on_round { Sink.round = r; counts = c }
      end;
      Pool.run pool phase_exchange;
      pending_next := 0;
      live_total := 0;
      for s = 0 to d - 1 do
        let sh = shards.(s) in
        pending_next := !pending_next + sh.sh_sd.s_total;
        live_total := !live_total + sh.sh_nlive
      done;
      incr round
    done
  in
  Pool.with_pool ~domains:d body;
  e.running <- false;
  e.dirty <- false;
  if instrumented then sink.on_finish ();
  (states, { rounds = !round; messages = !messages; max_inflight = !max_inflight })

(* The shard count [exec_emit] uses when called without [?domains]: 1
   (one shard on the calling domain) outside every [with_domains].  It
   lets a caller thread parallelism through composite algorithms whose
   inner [Runtime.run] calls cannot be reached syntactically. *)
let ambient_domains = ref 1

let with_domains d f =
  if d < 1 then invalid_arg "Engine.with_domains: domains < 1";
  let saved = !ambient_domains in
  ambient_domains := d;
  Fun.protect ~finally:(fun () -> ambient_domains := saved) f

let exec_emit ?max_rounds ?max_words ?sink ?churn ?guard ?corrupt ?domains
    ?partition e algo =
  if e.running then
    invalid_arg "Engine.exec_emit: engine already running (re-entrant call)";
  let domains = match domains with Some d -> d | None -> !ambient_domains in
  if domains < 1 then invalid_arg "Engine.exec_emit: domains < 1";
  (* clear [running] on abnormal exit so the engine stays usable; [dirty]
     stays set, forcing a buffer scrub on the next exec *)
  try
    exec_core ?max_rounds ?max_words ?sink ?churn ?guard ?corrupt ~domains
      ?partition e algo
  with exn ->
    e.running <- false;
    raise exn

(* The recording emitter of the two executors that keep their own
   mailboxes ([Runtime.run_reference], [Async.run_reliable]): built once
   per run, it steps a node and hands back the frames the step emitted as
   [(dst, payload)] pairs in emission order.  Frames are encoded into a
   scratch writer and decoded back, so every value crosses the same codec
   as on the engine, and the writer enforces the word budget at the same
   put as the engine's emit path, raising the same [Congestion_violation]
   text, so differential runs agree byte for byte. *)
let recorder ~max_words:budget g (a : 'st ealgorithm) =
  let em = Emit.make () in
  let acc = ref [] in
  em.Emit.estart <-
    (fun t u ->
      if t.Emit.eopen then invalid_arg "Engine.Emit.start: frame already open";
      t.Emit.edst <- u;
      t.Emit.eopen <- true;
      Codec.scratch_writer t.Emit.ew ~budget;
      t.Emit.ew);
  em.Emit.ecommit <-
    (fun t ->
      if not t.Emit.eopen then invalid_arg "Engine.Emit.commit: no open frame";
      t.Emit.eopen <- false;
      let p =
        Codec.decode (Codec.writer_bytes t.Emit.ew) ~base:0
          ~wire:(Codec.wire t.Emit.ew) ~words:(Codec.words t.Emit.ew)
      in
      acc := (t.Emit.edst, p) :: !acc);
  em.Emit.ebroadcast1 <-
    (fun t x ->
      if t.Emit.eopen then invalid_arg "Engine.Emit.broadcast1: frame already open";
      if budget < 1 then raise (Codec.Width_exceeded { budget; words = 1 });
      (* one frame per neighbor in ascending order, as [frame1] over each
         neighbor would emit them (the list is reversed once at the end
         of the step) *)
      Array.iter (fun (u, _) -> acc := (u, [| x |]) :: !acc) (Graph.neighbors g t.Emit.enode));
  fun ~round ~node st ib ->
    acc := [];
    em.Emit.enode <- node;
    em.Emit.eopen <- false;
    let st =
      try a.estep g ~round ~node st ib em
      with Codec.Width_exceeded { budget; words } ->
        raise
          (Congestion_violation
             (Printf.sprintf "round %d: node %d payload of %d words exceeds %d"
                round node words budget))
    in
    if em.Emit.eopen then invalid_arg "Engine.Emit: frame left open at end of step";
    let out = List.rev !acc in
    acc := [];
    (st, out)
