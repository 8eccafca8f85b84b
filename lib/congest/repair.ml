open Kdom_graph

(* Strict wave preference: higher originator id wins, depth breaks ties in
   favor of the shorter path.  Shared with [Leader]'s flood-wave upgrade so
   the takeover election below is the same rule restricted to the orphan
   set. *)
let wave_prefers (id1 : int) (d1 : int) (id2 : int) (d2 : int) =
  id1 > id2 || (id1 = id2 && d1 < d2)

type plan = { dominator : int array; parent : int array; depth : int array }

type config = {
  plan : plan;
  beta : int;
  lease : int;
  dmax : int;
  horizon : int;
}

let tag_hb = 0 (* [tag; dominator id; depth of sender] *)
let tag_attach = 1 (* [tag] — orphan looking for a cluster *)
let tag_welcome = 2 (* [tag; dominator id; depth of sender] *)
let tag_adopted = 3 (* [tag] — sender took us as its parent *)
let tag_newdom = 4 (* [tag; wave id; depth of sender] *)

(* Word budget: HB, WELCOME and NEWDOM carry [| tag; id; depth |] — 3 words. *)
let max_words = 3

type phase = Member | Orphan | Takeover

type state = {
  neighbors : int list;
  phase : phase;
  dom : int;            (* current dominator claim; -1 while orphaned *)
  parent : int;         (* tree parent; -1 for a dominator (or orphan) *)
  depth : int;          (* distance to [dom] along the cluster tree *)
  children : int list;
  deadline : int;       (* round at which the heartbeat lease expires *)
  last_hb : int;        (* round the last heartbeat actually arrived.
                           Adoption renews [deadline] but not this, so
                           only nodes whose dominator demonstrably beats
                           may vouch for it (see the WELCOME guard) *)
  attach_left : int;    (* remaining ATTACH retries before takeover *)
  attach_deadline : int;
  suspected_at : int;   (* first round the lease was missed; -1 = never *)
  repaired_at : int;    (* last round a dominator was (re)gained; -1 = never *)
  reparented : int;     (* opportunistic parent switches onto shorter paths *)
  hb_sent : int;
  repair_sent : int;
  next_wake : int;
  halted : bool;
}

let validate_plan g plan =
  let n = Graph.n g in
  if
    Array.length plan.dominator <> n
    || Array.length plan.parent <> n
    || Array.length plan.depth <> n
  then invalid_arg "Repair: plan arrays must have one entry per node";
  for v = 0 to n - 1 do
    let p = plan.parent.(v) in
    if p = -1 then begin
      (* [dominator = -1; parent = -1; depth = 0] is the joiner sentinel:
         a node (e.g. one arriving mid-run) with no cluster yet, started
         as an orphan that ATTACHes on its first step.  Any other
         parentless node must be a cluster root. *)
      if plan.dominator.(v) <> v && plan.dominator.(v) <> -1 then
        invalid_arg
          (Printf.sprintf "Repair: root %d of the cluster tree is not its dominator" v);
      if plan.depth.(v) <> 0 then
        invalid_arg (Printf.sprintf "Repair: dominator %d at depth <> 0" v)
    end
    else begin
      if p < 0 || p >= n then
        invalid_arg (Printf.sprintf "Repair: parent of %d out of range" v);
      if Option.is_none (Graph.find_edge g v p) then
        invalid_arg (Printf.sprintf "Repair: tree edge (%d, %d) is not a graph edge" v p);
      if plan.depth.(v) <> plan.depth.(p) + 1 then
        invalid_arg (Printf.sprintf "Repair: depth of %d not parent depth + 1" v);
      if plan.dominator.(v) <> plan.dominator.(p) then
        invalid_arg
          (Printf.sprintf "Repair: node %d and its parent disagree on the dominator" v)
    end
  done

let validate g cfg =
  validate_plan g cfg.plan;
  if cfg.beta < 2 then invalid_arg "Repair: beta must be >= 2";
  if cfg.lease < 2 then invalid_arg "Repair: lease must be >= 2";
  if cfg.dmax < Array.fold_left max 0 cfg.plan.depth then
    invalid_arg "Repair: dmax must cover the plan's cluster-tree depth";
  if cfg.horizon < 1 then invalid_arg "Repair: horizon must be >= 1"

let default_dmax (p : plan) = (2 * Array.fold_left max 0 p.depth) + 2

let algorithm g cfg : state Engine.ealgorithm =
  let n = Graph.n g in
  let { plan; beta; lease; dmax; horizon } = cfg in
  let children_of = Array.make (max 1 n) [] in
  for v = n - 1 downto 0 do
    let p = plan.parent.(v) in
    if p >= 0 then children_of.(p) <- v :: children_of.(p)
  done;
  let einit _g v =
    let joiner = plan.dominator.(v) = -1 && plan.parent.(v) = -1 in
    {
      neighbors = Array.to_list (Array.map fst (Graph.neighbors g v));
      phase = (if joiner then Orphan else Member);
      dom = plan.dominator.(v);
      parent = plan.parent.(v);
      depth = plan.depth.(v);
      children = children_of.(v);
      deadline = (lease * beta) + plan.depth.(v);
      last_hb = 0;
      attach_left = (if joiner then 2 else 0);
      attach_deadline = 0;
      suspected_at = -1;
      repaired_at = -1;
      reparented = 0;
      hb_sent = 0;
      repair_sent = 0;
      next_wake = 0;
      halted = false;
    }
  in
  let estep _g ~round:r ~node st inbox em =
    if st.halted then st
    else if r >= horizon then { st with halted = true }
    else begin
      (* A frame sent at [horizon - 1] would arrive after every node has
         halted — suppress sends (never state transitions) at the edge. *)
      let can_send = r < horizon - 1 in
      let hb_sent = ref st.hb_sent and repair_sent = ref st.repair_sent in
      let send_hb u dom depth =
        Engine.Emit.frame3 em ~dst:u tag_hb dom depth;
        incr hb_sent
      in
      let send_rep1 u tag =
        Engine.Emit.frame1 em ~dst:u tag;
        incr repair_sent
      in
      let send_rep3 u tag a b =
        Engine.Emit.frame3 em ~dst:u tag a b;
        incr repair_sent
      in
      (* One pass over the inbox.  HB from the current parent renews the
         lease; HB from anyone else in the same cluster is a re-parenting
         offer when it proves a strictly shorter path to the dominator;
         WELCOME is meaningful only to an orphan; competing NEWDOM waves
         reduce to the strongest one. *)
      let attachers = ref [] and adopters = ref [] in
      let hb = ref None in
      let best_reparent = ref None in
      let best_welcome = ref None in
      let best_newdom = ref None in
      for i = 0 to Engine.Inbox.length inbox - 1 do
        let u = Engine.Inbox.sender inbox i in
        let rd = Engine.Inbox.read inbox i in
        match Codec.get rd with
        | t when t = tag_attach -> attachers := u :: !attachers
        | t when t = tag_adopted -> adopters := u :: !adopters
        | t when t = tag_hb ->
          let dom = Codec.get rd in
          let pd = Codec.get rd in
          if u = st.parent then hb := Some (dom, pd)
          else if
            st.phase = Member && st.parent >= 0 && dom = st.dom && st.dom >= 0
            && pd + 1 < st.depth
          then begin
            let better =
              match !best_reparent with
              | None -> true
              | Some (d, s, _) -> (pd, u) < (d, s)
            in
            if better then best_reparent := Some (pd, u, dom)
          end
        | t when t = tag_welcome ->
          (* the depth cap guarantees the lease argument terminates: in a
             region with no live dominator every re-adoption strictly
             deepens the stale tree, so refusing over-deep offers starves
             the ping-pong and forces the region into takeover *)
          let dom = Codec.get rd in
          let pd = Codec.get rd in
          if st.phase = Orphan && pd < dmax then begin
            let better =
              match !best_welcome with
              | None -> true
              | Some (d, s, _) -> (pd, u) < (d, s)
            in
            if better then best_welcome := Some (pd, u, dom)
          end
        | t when t = tag_newdom ->
          let w = Codec.get rd in
          let d = Codec.get rd in
          let better =
            match !best_newdom with
            | None -> true
            | Some (s0, w0, d0) ->
              wave_prefers w d w0 d0 || (w = w0 && d = d0 && u < s0)
          in
          if better then best_newdom := Some (u, w, d)
        | t -> invalid_arg (Printf.sprintf "Repair: unknown tag %d" t)
      done;
      let attachers = !attachers in
      (* An ATTACH sender has renounced its place in our subtree; an ADOPTED
         sender has just joined it.  Doing this before any heartbeat
         forwarding keeps sends one-per-edge: the WELCOME reply is the only
         frame an attacher can get from us this round. *)
      let children =
        List.fold_left
          (fun cs u -> if List.mem u cs then cs else u :: cs)
          st.children !adopters
      in
      let children = List.filter (fun u -> not (List.mem u attachers)) children in
      let st = { st with children } in
      (* Lease renewal: a heartbeat from the parent refreshes the deadline,
         updates the dominator id and depth (corrections propagate down the
         tree) and confirms a takeover-wave member as a settled cluster
         member. *)
      let forward = ref false in
      let st =
        match !hb with
        | Some (dom, pd) when st.phase <> Orphan && st.parent >= 0 ->
          forward := true;
          let repaired_at = if st.phase = Takeover then r else st.repaired_at in
          let depth = pd + 1 in
          {
            st with
            dom;
            depth;
            deadline = r + (lease * beta) + depth;
            last_hb = r;
            phase = Member;
            repaired_at;
          }
        | _ -> st
      in
      let finish st =
        let target =
          if st.phase = Orphan then st.attach_deadline
          else if st.parent = -1 then ((r / beta) + 1) * beta
          else st.deadline
        in
        let next_wake = min horizon (max (r + 1) target) in
        { st with next_wake; hb_sent = !hb_sent; repair_sent = !repair_sent }
      in
      if st.parent >= 0 && st.phase <> Orphan && r >= st.deadline then begin
        (* Missed lease: the dominator (or the tree path to it) is gone.
           Orphan and look for a live cluster; this step sends only
           ATTACH. *)
        let st =
          {
            st with
            phase = Orphan;
            dom = -1;
            parent = -1;
            depth = 0;
            suspected_at = (if st.suspected_at < 0 then r else st.suspected_at);
            attach_left = 2;
            attach_deadline = r + 3;
          }
        in
        if can_send then List.iter (fun u -> send_rep1 u tag_attach) st.neighbors;
        finish st
      end
      else if st.phase = Orphan then begin
        match !best_welcome with
        | Some (d, u, dom) ->
          (* Reattach under the closest welcoming node — same cluster or a
             neighboring one (the merge rule for split clusters). *)
          let depth = d + 1 in
          let st =
            {
              st with
              phase = Member;
              dom;
              parent = u;
              depth;
              deadline = r + (lease * beta) + depth;
              repaired_at = r;
            }
          in
          if can_send then send_rep1 u tag_adopted;
          finish st
        | None -> (
          match !best_newdom with
          | Some (u, w, d) ->
            (* Join a takeover wave already running in the orphan set. *)
            let depth = d + 1 in
            let st =
              {
                st with
                phase = Takeover;
                dom = w;
                parent = u;
                depth;
                deadline = r + (lease * beta) + depth;
                repaired_at = r;
                children = List.filter (fun c -> c <> u) st.children;
              }
            in
            if can_send then begin
              send_rep1 u tag_adopted;
              List.iter
                (fun x -> if x <> u then send_rep3 x tag_newdom w depth)
                st.neighbors
            end;
            finish st
          | None ->
            if r >= st.attach_deadline then
              if st.attach_left > 0 then begin
                let st =
                  { st with attach_left = st.attach_left - 1; attach_deadline = r + 3 }
                in
                if can_send then
                  List.iter (fun u -> send_rep1 u tag_attach) st.neighbors;
                finish st
              end
              else begin
                (* No live cluster in reach: elect a replacement dominator
                   from the orphan set by flooding a takeover wave. *)
                let st =
                  { st with phase = Takeover; dom = node; parent = -1; depth = 0;
                    repaired_at = r }
                in
                if can_send then
                  List.iter (fun u -> send_rep3 u tag_newdom node 0) st.neighbors;
                finish st
              end
            else finish st)
      end
      else begin
        (* Non-orphan.  A takeover-wave node upgrades to a strictly better
           wave; adoption is the only traffic that step (no heartbeat, no
           welcomes), keeping sends one-per-edge. *)
        let adopted, st =
          if st.phase = Takeover then
            match !best_newdom with
            | Some (u, w, d) when wave_prefers w (d + 1) st.dom st.depth ->
              let depth = d + 1 in
              let st =
                {
                  st with
                  dom = w;
                  parent = u;
                  depth;
                  deadline = r + (lease * beta) + depth;
                  children = List.filter (fun c -> c <> u) st.children;
                }
              in
              if can_send then begin
                send_rep1 u tag_adopted;
                List.iter
                  (fun x -> if x <> u then send_rep3 x tag_newdom w depth)
                  st.neighbors
              end;
              (true, st)
            | _ -> (false, st)
          else (false, st)
        in
        if adopted then finish st
        else begin
          (* Opportunistic re-parenting: a fresh heartbeat from a
             same-cluster neighbor at strictly smaller depth proves a
             shorter tree path (an inserted edge, or a shortcut the old
             plan missed).  The adopter's depth strictly decreases at
             every switch and the offer's depth was sent one round ago, so
             even simultaneous switches cannot form a cycle. *)
          let reparent_to, st =
            match !best_reparent with
            | Some (pd, u, dom)
              when st.phase = Member && st.parent >= 0 && dom = st.dom
                   && pd + 1 < st.depth ->
              let depth = pd + 1 in
              ( Some u,
                {
                  st with
                  parent = u;
                  depth;
                  deadline = r + (lease * beta) + depth;
                  last_hb = r;
                  reparented = st.reparented + 1;
                  children = List.filter (fun c -> c <> u) st.children;
                } )
            | _ -> (None, st)
          in
          if can_send then begin
            (match reparent_to with
            | Some u -> send_rep1 u tag_adopted
            | None -> ());
            (* Heartbeats: a dominator (original or takeover) emits a wave
               every [beta] rounds; everyone else relays the parent's.  The
               wave is broadcast to every neighbor — non-children read the
               carried depth as a re-parenting offer — except attachers
               (their one frame this round is the WELCOME), the parent,
               and a just-adopted new parent (one frame per edge per
               round). *)
            let skip u =
              u = st.parent
              || List.mem u attachers
              || (match reparent_to with Some p -> u = p | None -> false)
            in
            if (st.parent = -1 && r mod beta = 0) || !forward then
              List.iter
                (fun u -> if not (skip u) then send_hb u st.dom st.depth)
                st.neighbors;
            (* WELCOME only while vouching is honest: the depth cap plus
               heartbeat freshness.  A dominator vouches for itself; anyone
               else must have heard a real heartbeat within its own lease —
               adoption does not refresh [last_hb], so once a dominator
               dies its whole region stops welcoming within one lease and
               collapses into takeover together instead of lease-renewing
               each other pairwise. *)
            let fresh =
              st.parent = -1 || r - st.last_hb <= (lease * beta) + st.depth
            in
            if st.dom >= 0 && st.depth < dmax && fresh then
              List.iter
                (fun u -> send_rep3 u tag_welcome st.dom st.depth)
                attachers
          end;
          finish st
        end
      end
    end
  in
  let ehalted st = st.halted in
  (* Everything is either message-driven (the engine always steps a node
     with a non-empty inbox) or timer-driven: the next lease check, attach
     retry, heartbeat emission or the final halt at [horizon] — whichever
     is earliest, precomputed into [next_wake] by [estep]. *)
  let ewake st =
    if st.halted then Engine.OnMessage else Engine.At st.next_wake
  in
  { Engine.einit; estep; ehalted; ewake }

(* ------------------------------------------------------------------ *)
(* decoding *)

type report = {
  dominator_of : int array;
  parent_of : int array;
  depth_of : int array;
  suspicions : int;
  first_suspect : int;
  last_repair : int;
  reparents : int;
  hb_frames : int;
  repair_frames : int;
}

let decode states =
  let suspicions = ref 0 in
  let first_suspect = ref (-1) in
  let last_repair = ref (-1) in
  let reparents = ref 0 in
  let hb_frames = ref 0 in
  let repair_frames = ref 0 in
  Array.iter
    (fun st ->
      if st.suspected_at >= 0 then begin
        incr suspicions;
        if !first_suspect < 0 || st.suspected_at < !first_suspect then
          first_suspect := st.suspected_at
      end;
      if st.repaired_at > !last_repair then last_repair := st.repaired_at;
      reparents := !reparents + st.reparented;
      hb_frames := !hb_frames + st.hb_sent;
      repair_frames := !repair_frames + st.repair_sent)
    states;
  {
    dominator_of = Array.map (fun st -> st.dom) states;
    parent_of = Array.map (fun st -> st.parent) states;
    depth_of = Array.map (fun st -> st.depth) states;
    suspicions = !suspicions;
    first_suspect = !first_suspect;
    last_repair = !last_repair;
    reparents = !reparents;
    hb_frames = !hb_frames;
    repair_frames = !repair_frames;
  }

let live_centers rep alive =
  let cs = ref [] in
  Array.iteri (fun v d -> if alive.(v) && d = v then cs := v :: !cs) rep.dominator_of;
  !cs

(* ------------------------------------------------------------------ *)
(* execution *)

let run ?trace ?churn ?corrupt ?max_rounds e cfg =
  let g = Engine.graph e in
  validate g cfg;
  let max_rounds = match max_rounds with Some m -> m | None -> cfg.horizon + 2 in
  let clock0 = match trace with Some t -> Trace.clock t | None -> 0 in
  let states, stats =
    Trace.observe trace ~max_words "repair" (fun sink ->
        Engine.exec_emit ~max_rounds ~max_words ~sink ?churn ?corrupt e
          (algorithm g cfg))
  in
  let rep = decode states in
  (match trace with
  | None -> ()
  | Some t ->
    Trace.note t "repair.suspicions" rep.suspicions;
    Trace.note t "repair.reparents" rep.reparents;
    Trace.note t "repair.hb_frames" rep.hb_frames;
    Trace.note t "repair.repair_frames" rep.repair_frames;
    if rep.first_suspect >= 0 then begin
      Trace.note t "repair.first_suspect" rep.first_suspect;
      Trace.note t "repair.last_repair" rep.last_repair;
      let stop = max rep.first_suspect rep.last_repair in
      Trace.add_span t ~name:"repair.heal"
        ~start_round:(clock0 + rep.first_suspect) ~stop_round:(clock0 + stop) ()
    end);
  (states, stats)
