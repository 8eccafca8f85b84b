open Kdom_graph
open Kdom_congest

type result = {
  leader : int;
  parent : int array;
  depth : int array;
  stats : Engine.stats;
}

let tag_offer = 0 (* [tag; wave key; depth of sender] *)
let tag_accept = 1 (* [tag; wave key] — sender adopted us as its parent *)
let tag_echo = 2 (* [tag; wave key] *)
let tag_leader = 3 (* [tag; leader id] *)

(* Waves are ordered by a fixed pseudo-random key of the originator's id,
   not the id itself: on a grid the row-major ids make every lower wave
   travel far before a preferred one kills it (Θ(m·Diam) messages), while
   in random order a node only forwards the O(log n) waves, in expectation,
   whose origin is closer than every preferred origin.  The high [b] bits
   are the murmur3 32-bit finaliser of the id and the low [b] bits the id
   itself, with [b = ⌈log2 n⌉], so keys are unique and 2b bits wide. *)
let fmix32 x =
  let x = x land 0xffff_ffff in
  let x = x lxor (x lsr 16) in
  let x = x * 0x85eb_ca6b land 0xffff_ffff in
  let x = x lxor (x lsr 13) in
  let x = x * 0xc2b2_ae35 land 0xffff_ffff in
  x lxor (x lsr 16)

let key_bits n =
  let b = ref 0 in
  while 1 lsl !b < n do incr b done;
  !b

let key_of ~b v = ((fmix32 v land ((1 lsl b) - 1)) lsl b) lor v

let key ~n v =
  if v < 0 || v >= n then invalid_arg "Leader.key: node out of range";
  key_of ~b:(key_bits n) v

(* Per-neighbour membership in the current wave, one bit each in the
   neighbour's flag byte: a non-child neighbour known to be in the wave, a
   child that accepted but did not echo yet, a child whose echo arrived. *)
let f_same = 1
let f_pending = 2
let f_done = 4

(* Mutable per-node state, updated in place by [estep]: the flags replace
   three membership lists, and the two counters make the settledness test
   O(1).  Every field is reset when the node adopts a stronger wave. *)
type state = {
  nbrs : int array;          (* neighbour ids, ascending *)
  flags : Bytes.t;           (* flag byte per neighbour, indexed like [nbrs] *)
  mutable best : int;        (* key of the wave this node belongs to *)
  mutable depth : int;
  mutable parent : int;      (* -1 when this node originated the wave *)
  mutable parent_ix : int;   (* index of [parent] in [nbrs], -1 if none *)
  mutable uncovered : int;   (* neighbours neither parent, same-wave nor done *)
  mutable pending : int;     (* neighbours flagged pending *)
  mutable echoed : bool;
  mutable just_adopted : bool; (* suppresses same-round echo after an accept *)
  mutable leader : int;      (* -1 until the final broadcast *)
  mutable halted : bool;
}

(* Index of neighbour [u] in the ascending [nbrs]: the engine only delivers
   frames from neighbours, so the search always succeeds. *)
let index_of (nbrs : int array) u =
  let lo = ref 0 and hi = ref (Array.length nbrs - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if nbrs.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let covered st i =
  i = st.parent_ix
  || Bytes.get_uint8 st.flags i land (f_same lor f_done) <> 0

let set_flag st i f =
  let was = covered st i in
  Bytes.set_uint8 st.flags i (Bytes.get_uint8 st.flags i lor f);
  if (not was) && covered st i then st.uncovered <- st.uncovered - 1

(* Send the final broadcast to every child whose echo arrived. *)
let broadcast_leader st em leader =
  for i = 0 to Array.length st.nbrs - 1 do
    if Bytes.get_uint8 st.flags i land f_done <> 0 then
      Engine.Emit.frame2 em ~dst:st.nbrs.(i) tag_leader leader
  done

let algorithm g : state Engine.ealgorithm =
  let b = key_bits (Graph.n g) in
  let einit _g v =
    let nbrs = Array.map fst (Graph.neighbors g v) in
    {
      nbrs;
      flags = Bytes.make (Array.length nbrs) '\000';
      best = key_of ~b v;
      depth = 0;
      parent = -1;
      parent_ix = -1;
      uncovered = Array.length nbrs;
      pending = 0;
      echoed = false;
      just_adopted = false;
      leader = -1;
      halted = false;
    }
  in
  let estep _g ~round ~node st inbox em =
    let deg = Array.length st.nbrs in
    if round = 0 then begin
      for i = 0 to deg - 1 do
        Engine.Emit.frame3 em ~dst:st.nbrs.(i) tag_offer st.best 0
      done;
      (* [just_adopted] doubles as "check settledness next round even with
         an empty inbox" — a node with no neighbors (n = 1) gets no offers
         and must still reach the leader check at round 1 *)
      st.just_adopted <- true
    end
    else begin
      let len = Engine.Inbox.length inbox in
      (* the strongest wave offered this round, if it beats the current —
         same preference rule as [Repair]'s takeover election *)
      let up_w = ref (-1) and up_d = ref 0 and up_via = ref (-1) in
      for i = 0 to len - 1 do
        let rd = Engine.Inbox.read inbox i in
        if Codec.get rd = tag_offer then begin
          let w = Codec.get rd in
          if w > st.best then begin
            let d = Codec.get rd in
            if !up_via < 0 || Repair.wave_prefers w d !up_w !up_d then begin
              up_w := w;
              up_d := d;
              up_via := Engine.Inbox.sender inbox i
            end
          end
        end
      done;
      if !up_via >= 0 then begin
        let w = !up_w and d = !up_d and via = !up_via in
        Engine.Emit.frame2 em ~dst:via tag_accept w;
        for i = 0 to deg - 1 do
          let u = st.nbrs.(i) in
          if u <> via then Engine.Emit.frame3 em ~dst:u tag_offer w (d + 1)
        done;
        st.best <- w;
        st.depth <- d + 1;
        st.parent <- via;
        st.parent_ix <- index_of st.nbrs via;
        Bytes.fill st.flags 0 deg '\000';
        st.uncovered <- deg - 1;
        st.pending <- 0;
        st.echoed <- false;
        st.just_adopted <- true
      end
      else st.just_adopted <- false;
      (* bookkeeping for the (possibly new) current wave *)
      for i = 0 to len - 1 do
        let rd = Engine.Inbox.read inbox i in
        let t = Codec.get rd in
        if t = tag_leader then st.leader <- Codec.get rd
        else if t = tag_offer || t = tag_accept || t = tag_echo then begin
          (* weaker or stale waves need no reply *)
          if Codec.get rd = st.best then begin
            let ix = index_of st.nbrs (Engine.Inbox.sender inbox i) in
            let fl = Bytes.get_uint8 st.flags ix in
            if t = tag_offer then set_flag st ix f_same
            else if t = tag_accept then begin
              if fl land f_pending = 0 then begin
                set_flag st ix f_pending;
                st.pending <- st.pending + 1
              end
            end
            else begin
              if fl land f_pending <> 0 then begin
                Bytes.set_uint8 st.flags ix (fl lxor f_pending);
                st.pending <- st.pending - 1
              end;
              set_flag st ix f_done
            end
          end
        end
        else invalid_arg (Printf.sprintf "Leader: unknown tag %d" t)
      done;
      (* forward the final broadcast and halt *)
      if st.leader >= 0 then begin
        broadcast_leader st em st.leader;
        st.halted <- true
      end
      else begin
        let settled = (not st.just_adopted) && st.uncovered = 0 && st.pending = 0 in
        if settled && st.parent = -1 && st.best = key_of ~b node then begin
          (* complete echo of our own wave: we are the leader *)
          broadcast_leader st em node;
          st.leader <- node;
          st.halted <- true
        end
        else if settled && st.parent <> -1 && not st.echoed then begin
          Engine.Emit.frame2 em ~dst:st.parent tag_echo st.best;
          st.echoed <- true
        end
      end
    end;
    st
  in
  let ehalted st = st.halted in
  (* Wake hints: wave adoption, bookkeeping and the final broadcast are all
     message-driven.  The one empty-inbox transition is the echo check the
     round after an adoption ([just_adopted] suppresses the same-round
     echo), so an adopter asks to be stepped next round. *)
  let ewake st = if st.just_adopted then Engine.Next else Engine.OnMessage in
  { Engine.einit; estep; ehalted; ewake }

(* Word budget: the widest message is [| tag_offer; wave key; depth |] — 3
   words. *)
let max_words = 3

let result_of_states states stats =
  let n = Array.length states in
  if n = 0 then invalid_arg "Leader.result_of_states: no states";
  let leader_id = states.(0).leader in
  let leader_key = if leader_id < 0 || leader_id >= n then -1 else key ~n leader_id in
  Array.iteri
    (fun v st ->
      if st.leader <> leader_id || st.best <> leader_key then
        invalid_arg (Printf.sprintf "Leader.elect: node %d disagrees on the leader" v))
    states;
  {
    leader = leader_id;
    parent = Array.map (fun st -> st.parent) states;
    depth = Array.map (fun st -> st.depth) states;
    stats;
  }

let elect ?trace g =
  if Graph.n g = 0 then invalid_arg "Leader.elect: empty graph";
  if not (Graph.is_connected g) then invalid_arg "Leader.elect: graph must be connected";
  Trace.observe trace ~max_words "leader.elect" (fun sink ->
      let states, stats = Runtime.run ~max_words ~sink g (algorithm g) in
      result_of_states states stats)

let round_bound ~diam = (5 * diam) + 10
