open Kdom_graph

type kind = Lookup | Publish | Route of int

type request = { origin : int; kind : kind; at : int }

type config = {
  plan : Repair.plan;
  requests : request array;
  horizon : int;
  retry_after : int;
  retries : int;
}

(* Frame layout: [| tag; request id; aux; hops |].  [aux] is the route
   destination on the way up/down, and the answer (dominator id /
   destination, or -1 for a NACK) on a reply. *)
let tag_lookup = 0
let tag_publish = 1
let tag_route = 2
let tag_reply = 3

let max_words = 4

let validate g cfg =
  Repair.validate_plan g cfg.plan;
  if cfg.horizon < 1 then invalid_arg "Serve: horizon must be >= 1";
  if cfg.retry_after < 1 then invalid_arg "Serve: retry_after must be >= 1";
  if cfg.retries < 0 then invalid_arg "Serve: retries must be >= 0";
  let n = Graph.n g in
  Array.iteri
    (fun i rq ->
      if rq.origin < 0 || rq.origin >= n then
        invalid_arg (Printf.sprintf "Serve: request %d origin out of range" i);
      if rq.at < 0 || rq.at >= cfg.horizon then
        invalid_arg (Printf.sprintf "Serve: request %d injected outside the horizon" i);
      match rq.kind with
      | Route d when d < 0 || d >= n ->
        invalid_arg (Printf.sprintf "Serve: request %d destination out of range" i)
      | _ -> ())
    cfg.requests

(* Tree distance inside one cluster tree, via the LCA — the offline mirror
   of the climb/descend path a route frame takes. *)
let tree_distance (plan : Repair.plan) u v =
  let n = Array.length plan.parent in
  if u < 0 || v < 0 || u >= n || v >= n then None
  else if plan.dominator.(u) < 0 || plan.dominator.(u) <> plan.dominator.(v) then None
  else begin
    (* climb the deeper endpoint until the two meet at the LCA *)
    let a = ref u and b = ref v and d = ref 0 in
    while !a <> !b do
      if plan.depth.(!a) >= plan.depth.(!b) then a := plan.parent.(!a)
      else b := plan.parent.(!b);
      incr d
    done;
    Some !d
  end

(* Per-run tables, one cell per node, tree port or request.  A cell has
   exactly one writer: a node writes its own counters, the ports it sends
   on and the requests it originates, never anything else, so the shards
   of a d-domain run never race and every executor builds the same
   tables.

   - Tree ports: slots [toff.(v), toff.(v+1)) are [v]'s parent and
     children in ascending id ([nbr]).  Each slot is a FIFO of 4-int
     frames (a ring in [qbuf], grown by doubling) with a send counter;
     [busy.(v)] counts [v]'s non-empty slots.
   - Origins: [ids.(ioff.(v)) ..] are [v]'s request ids in (round, id)
     order, [inj.(v)] the next to inject.  The same segment of [tq_req] /
     [tq_dl] is [v]'s retry-timer FIFO (at most one entry per request),
     and of [due] its scratch for a round's expired set.
   - Requests: re-sends made ([tries]) and the result ([res_round] = -1
     until answered). *)
type tables = {
  toff : int array; nbr : int array; (* tree ports *)
  qbuf : int array array; qhead : int array; qlen : int array; sent : int array; (* per slot *)
  busy : int array; q_len : int array; q_peak : int array; stray : int array; (* per node *)
  crumbs : int Int_table.t array; (* per relay: request -> slot its reply goes out on *)
  ioff : int array; ids : int array; inj : int array; (* per origin *)
  tq_head : int array; tq_len : int array; tq_req : int array; tq_dl : int array; due : int array;
  tries : int array; res_round : int array; res_hops : int array; res_answer : int array;
}

(* [wake] is the next wake-up round, -1 once halted. *)
type state = { tb : tables; v : int; mutable wake : int }

let no_crumbs = Int_table.create 1 (* shared and never written *)

let tables g cfg =
  let parent = cfg.plan.parent and requests = cfg.requests in
  let n = Array.length parent and nreq = Array.length requests in
  let count off v = off.(v + 1) <- off.(v + 1) + 1 in
  let prefix off = for v = 0 to n - 1 do off.(v + 1) <- off.(v + 1) + off.(v) done in
  let toff = Array.make (n + 1) 0 and ioff = Array.make (n + 1) 0 in
  Array.iteri (fun v p -> if p >= 0 then (count toff v; count toff p)) parent;
  Array.iter (fun rq -> count ioff rq.origin) requests;
  prefix toff;
  prefix ioff;
  let nbr = Array.make toff.(n) 0 in
  for v = 0 to n - 1 do
    let j = ref toff.(v) in
    Array.iter
      (fun (u, _) ->
        if parent.(u) = v || parent.(v) = u then begin
          nbr.(!j) <- u;
          incr j
        end)
      (Graph.neighbors g v)
  done;
  let ids = Array.init nreq Fun.id in
  let key i = (requests.(i).origin * cfg.horizon) + requests.(i).at in
  Array.stable_sort (fun i j -> Int.compare (key i) (key j)) ids;
  let slots () = Array.make toff.(n) 0 and nodes () = Array.make n 0
  and reqs () = Array.make nreq 0 in
  {
    toff; nbr; qbuf = Array.make toff.(n) [||]; qhead = slots (); qlen = slots (); sent = slots ();
    busy = nodes (); q_len = nodes (); q_peak = nodes (); stray = nodes ();
    crumbs = Array.make n no_crumbs; ioff; ids; inj = nodes ();
    tq_head = nodes (); tq_len = nodes (); tq_req = reqs (); tq_dl = reqs (); due = reqs ();
    tries = reqs (); res_round = Array.make nreq (-1); res_hops = reqs (); res_answer = reqs ();
  }

let algorithm g cfg : state Engine.ealgorithm =
  let { plan; requests; horizon; retry_after; retries } = cfg in
  let parent = plan.parent and dom = plan.dominator and depth = plan.depth in
  let n = Array.length parent in
  let tb = tables g cfg in
  let { toff; nbr; qbuf; qhead; qlen; sent; busy; q_len; q_peak; stray; crumbs;
        ioff; ids; inj; tq_head; tq_len; tq_req; tq_dl; due; tries;
        res_round; res_hops; res_answer } = tb in
  (* The child of [v] on the tree path down to [dst], or -1 when [dst] is
     not a strict descendant of [v]: climb from [dst] (the plan's depths
     are validated consistent with its parents). *)
  let route_next v dst =
    if dst < 0 || dst >= n || depth.(dst) <= depth.(v) then -1
    else begin
      let c = ref dst in
      for _ = depth.(v) + 2 to depth.(dst) do c := parent.(!c) done;
      if parent.(!c) = v then !c else -1
    end
  in
  (* [v]'s slot towards tree neighbor [u]: binary search of its ports *)
  let slot v u =
    let lo = ref toff.(v) and hi = ref (toff.(v + 1) - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if nbr.(mid) < u then lo := mid + 1 else hi := mid
    done;
    if !lo < toff.(v + 1) && nbr.(!lo) = u then !lo
    else invalid_arg (Printf.sprintf "Serve: %d is not a tree neighbor of %d" u v)
  in
  let enqueue node s tag req aux hops =
    let len = qlen.(s) in
    let buf =
      let b = qbuf.(s) in
      let cap = Array.length b / 4 in
      if len < cap then b
      else begin
        let nb = Array.make (Int.max 8 (8 * cap)) 0 in
        for i = 0 to len - 1 do
          Array.blit b ((qhead.(s) + i) mod cap * 4) nb (i * 4) 4
        done;
        qbuf.(s) <- nb;
        qhead.(s) <- 0;
        nb
      end
    in
    let o = (qhead.(s) + len) mod (Array.length buf / 4) * 4 in
    buf.(o) <- tag;
    buf.(o + 1) <- req;
    buf.(o + 2) <- aux;
    buf.(o + 3) <- hops;
    qlen.(s) <- len + 1;
    if len = 0 then busy.(node) <- busy.(node) + 1;
    q_len.(node) <- q_len.(node) + 1;
    if q_len.(node) > q_peak.(node) then q_peak.(node) <- q_len.(node)
  in
  let record req ~round ~hops ~answer =
    if res_round.(req) < 0 then begin
      res_round.(req) <- round;
      res_hops.(req) <- hops;
      res_answer.(req) <- answer
    end
  in
  let crumb node req s =
    if crumbs.(node) == no_crumbs then crumbs.(node) <- Int_table.create 8;
    Int_table.replace crumbs.(node) req s
  in
  (* The origin's timer FIFO: deadlines are [r + retry_after] with [r]
     nondecreasing, so the FIFO is in deadline order. *)
  let tq_slot node i = ioff.(node) + ((tq_head.(node) + i) mod (ioff.(node + 1) - ioff.(node))) in
  let arm node req r =
    let i = tq_slot node tq_len.(node) in
    tq_req.(i) <- req;
    tq_dl.(i) <- r + retry_after;
    tq_len.(node) <- tq_len.(node) + 1
  in
  let pop node =
    tq_head.(node) <- (tq_head.(node) + 1) mod (ioff.(node + 1) - ioff.(node));
    tq_len.(node) <- tq_len.(node) - 1
  in
  (* A frame's next hop: the child towards a route's destination, else
     the parent (-1 at a root). *)
  let next_hop node tag dst =
    let c = if tag = tag_route then route_next node dst else -1 in
    if c >= 0 then c else parent.(node)
  in
  (* The first frame of a request, from its origin (also its re-sends). *)
  let first_frame node r req =
    let tag, dst =
      match requests.(req).kind with
      | Lookup -> (tag_lookup, 0)
      | Publish -> (tag_publish, 0)
      | Route dst -> (tag_route, dst)
    in
    enqueue node (slot node (next_hop node tag dst)) tag req dst 1;
    arm node req r
  in
  let inject node r req =
    let local answer = record req ~round:r ~hops:0 ~answer in
    match requests.(req).kind with
    | Route dst when dst = node -> local node
    | _ when dom.(node) < 0 -> local (-1)
    | (Lookup | Publish) when dom.(node) = node -> local node
    | Route dst when route_next node dst < 0 && parent.(node) < 0 ->
      (* origin is the root and the destination is not in its tree *)
      local (-1)
    | _ -> first_frame node r req
  in
  (* [v] resets exactly the cells it owns *)
  let einit _g v =
    for s = toff.(v) to toff.(v + 1) - 1 do
      qhead.(s) <- 0; qlen.(s) <- 0; sent.(s) <- 0
    done;
    busy.(v) <- 0; q_len.(v) <- 0; q_peak.(v) <- 0; stray.(v) <- 0;
    tq_head.(v) <- 0; tq_len.(v) <- 0; inj.(v) <- ioff.(v); crumbs.(v) <- no_crumbs;
    for i = ioff.(v) to ioff.(v + 1) - 1 do
      tries.(ids.(i)) <- 0; res_round.(ids.(i)) <- -1
    done;
    { tb; v; wake = 0 }
  in
  let estep _g ~round:r ~node st inbox em =
    if st.wake < 0 then st
    else if r >= horizon then begin
      st.wake <- -1;
      st
    end
    else begin
      (* 1. consume the inbox — every frame is [| tag; req; aux; hops |],
         decoded in place from the packed arena *)
      for i = 0 to Engine.Inbox.length inbox - 1 do
        let u = Engine.Inbox.sender inbox i in
        let rd = Engine.Inbox.read inbox i in
        let tag = Codec.get rd in
        let req = Codec.get rd in
        let aux = Codec.get rd in
        let hops = Codec.get rd in
        if tag = tag_reply then begin
          if requests.(req).origin = node then record req ~round:r ~hops ~answer:aux
          else
            match Int_table.find crumbs.(node) req with
            | s ->
              Int_table.remove crumbs.(node) req;
              enqueue node s tag_reply req aux (hops + 1)
            | exception Not_found -> stray.(node) <- stray.(node) + 1
        end
        else if tag = tag_lookup || tag = tag_publish || tag = tag_route then begin
          (* served here: a lookup or publish at the dominator, a route at
             its destination ([aux]) *)
          if (if tag = tag_route then aux = node else dom.(node) = node) then
            enqueue node (slot node u) tag_reply req node (hops + 1)
          else begin
            let next = next_hop node tag aux in
            if next >= 0 then begin
              crumb node req (slot node u);
              enqueue node (slot node next) tag req aux (hops + 1)
            end
            else (* a sentinel relay, or a root without the destination:
                    refuse rather than drop *)
              enqueue node (slot node u) tag_reply req (-1) (hops + 1)
          end
        end
        else invalid_arg (Printf.sprintf "Serve: unknown tag %d" tag)
      done;
      (* 2. due injections *)
      while inj.(node) < ioff.(node + 1) && requests.(ids.(inj.(node))).at <= r do
        inject node r ids.(inj.(node));
        inj.(node) <- inj.(node) + 1
      done;
      (* 3. retry deadlines: pop the due entries, keep the unanswered ones
         in ascending id (an insertion sort; a round's entries come from at
         most two ascending runs), then re-send or give up on each *)
      let base = ioff.(node) and m = ref 0 in
      while tq_len.(node) > 0 && tq_dl.(tq_slot node 0) <= r do
        let req = tq_req.(tq_slot node 0) in
        pop node;
        if res_round.(req) < 0 then begin
          let j = ref (base + !m) in
          while !j > base && due.(!j - 1) > req do
            due.(!j) <- due.(!j - 1);
            decr j
          done;
          due.(!j) <- req;
          incr m
        end
      done;
      for i = base to base + !m - 1 do
        let req = due.(i) in
        (* out of retries: no timer, decode says Lost unless a late reply
           still lands *)
        if tries.(req) < retries then begin
          tries.(req) <- tries.(req) + 1;
          first_frame node r req
        end
      done;
      (* 4. drain at most one frame per neighbor — the CONGEST discipline —
         in ascending neighbor order, straight into the packed send arena *)
      if r < horizon - 1 then begin
        let todo = ref busy.(node) and s = ref toff.(node) in
        while !todo > 0 do
          let s' = !s in
          if qlen.(s') > 0 then begin
            let buf = qbuf.(s') and o = qhead.(s') * 4 in
            Engine.Emit.frame4 em ~dst:nbr.(s') buf.(o) buf.(o + 1) buf.(o + 2) buf.(o + 3);
            qhead.(s') <- (qhead.(s') + 1) mod (Array.length buf / 4);
            qlen.(s') <- qlen.(s') - 1;
            sent.(s') <- sent.(s') + 1;
            if qlen.(s') = 0 then busy.(node) <- busy.(node) - 1;
            q_len.(node) <- q_len.(node) - 1;
            decr todo
          end;
          incr s
        done
      end;
      (* 5. next wake-up: queued frames next round, else the earliest
         injection or live retry deadline (answered entries are dropped
         from the FIFO's front), else the final halt *)
      let target =
        if busy.(node) > 0 then r + 1
        else begin
          let tg = ref horizon in
          if inj.(node) < ioff.(node + 1) then
            tg := Int.min !tg requests.(ids.(inj.(node))).at;
          while tq_len.(node) > 0 && res_round.(tq_req.(tq_slot node 0)) >= 0 do
            pop node
          done;
          if tq_len.(node) > 0 then tg := Int.min !tg tq_dl.(tq_slot node 0);
          !tg
        end
      in
      st.wake <- Int.min horizon (Int.max (r + 1) target);
      st
    end
  in
  let ehalted st = st.wake < 0 in
  let ewake st = if st.wake < 0 then Engine.OnMessage else Engine.At st.wake in
  { Engine.einit; estep; ehalted; ewake }

(* ------------------------------------------------------------------ *)
(* decoding *)

type outcome =
  | Answered of { round : int; hops : int; answer : int }
  | Rejected of { round : int; hops : int }
  | Lost

type report = {
  outcomes : outcome array;
  answered : int;
  rejected : int;
  lost : int;
  local : int;
  retries_used : int;
  stray : int;
  frames : int;
  latencies : int array;
  hop_counts : int array;
  edge_load : (int * int) list;
  queue_peak : int;
  queue_peak_node : int;
}

let hist a =
  let counts = Array.make (1 + Array.fold_left Int.max 0 a) 0 in
  Array.iter (fun v -> counts.(v) <- counts.(v) + 1) a;
  let acc = ref [] in
  for v = Array.length counts - 1 downto 0 do
    if counts.(v) > 0 then acc := (v, counts.(v)) :: !acc
  done;
  !acc

let percentile a p =
  let len = Array.length a in
  if len = 0 then 0
  else begin
    let idx = (p * len + 99) / 100 - 1 in
    a.(max 0 (min (len - 1) idx))
  end

let decode cfg states =
  (* every state carries the run's tables; a 0-node run has no state *)
  let tb =
    if Array.length states = 0 then tables (Graph.of_edges ~n:0 []) cfg else states.(0).tb
  in
  let nreq = Array.length cfg.requests in
  let outcomes = Array.make nreq Lost in
  let latencies = Array.make nreq 0 and hop_counts = Array.make nreq 0 in
  let answered = ref 0 and rejected = ref 0 and local = ref 0 in
  for i = 0 to nreq - 1 do
    let round = tb.res_round.(i) and hops = tb.res_hops.(i) and answer = tb.res_answer.(i) in
    if round >= 0 && answer >= 0 then begin
      outcomes.(i) <- Answered { round; hops; answer };
      latencies.(!answered) <- round - cfg.requests.(i).at;
      hop_counts.(!answered) <- hops;
      incr answered;
      if hops = 0 then incr local
    end
    else if round >= 0 then begin
      outcomes.(i) <- Rejected { round; hops };
      incr rejected
    end
  done;
  let sorted a =
    let a = Array.sub a 0 !answered in
    Array.sort Int.compare a;
    a
  in
  let sum = Array.fold_left ( + ) 0 in
  let queue_peak = Array.fold_left Int.max 0 tb.q_peak in
  let rec peak_node v = if tb.q_peak.(v) = queue_peak then v else peak_node (v + 1) in
  {
    outcomes;
    answered = !answered;
    rejected = !rejected;
    lost = nreq - !answered - !rejected;
    local = !local;
    retries_used = sum tb.tries;
    stray = sum tb.stray;
    frames = sum tb.sent;
    latencies = sorted latencies;
    hop_counts = sorted hop_counts;
    edge_load = List.filter (fun (c, _) -> c > 0) (hist tb.sent);
    queue_peak;
    queue_peak_node = (if queue_peak = 0 then -1 else peak_node 0);
  }

(* ------------------------------------------------------------------ *)
(* execution *)

let run ?trace ?churn ?corrupt e cfg =
  let g = Engine.graph e in
  validate g cfg;
  let states, stats =
    Trace.observe trace ~max_words "serve" (fun sink ->
        Engine.exec_emit ~max_rounds:(cfg.horizon + 2) ~max_words ~sink ?churn
          ?corrupt e (algorithm g cfg))
  in
  (match trace with
  | None -> ()
  | Some t ->
    let rep = decode cfg states in
    Trace.note t "serve.requests" (Array.length cfg.requests);
    Trace.note t "serve.answered" rep.answered;
    Trace.note t "serve.rejected" rep.rejected;
    Trace.note t "serve.lost" rep.lost;
    Trace.note t "serve.retries" rep.retries_used;
    Trace.note t "serve.latency_p50" (percentile rep.latencies 50);
    Trace.note t "serve.latency_p99" (percentile rep.latencies 99);
    Trace.note t "serve.hops_p50" (percentile rep.hop_counts 50);
    Trace.note t "serve.hops_p99" (percentile rep.hop_counts 99);
    Trace.histogram t "serve.latency" (hist rep.latencies);
    Trace.histogram t "serve.hops" (hist rep.hop_counts);
    Trace.histogram t "serve.edge_load" rep.edge_load);
  (states, stats)

(* ------------------------------------------------------------------ *)
(* oracles *)

let fail check fmt = Printf.ksprintf (fun detail -> { Oracle.check; detail }) fmt

(* Churn-free expectations: exact tree round trips against the plan. *)
let check _g cfg rep =
  let plan = cfg.plan in
  let failures = ref [] in
  let push f = failures := f :: !failures in
  Array.iteri
    (fun i rq ->
      let sentinel = plan.dominator.(rq.origin) < 0 in
      match (rep.outcomes.(i), rq.kind) with
      | Lost, _ -> push (fail "serve" "request %d lost in a churn-free run" i)
      | Rejected _, Route dst when dst = rq.origin ->
        push (fail "serve" "self-route %d rejected" i)
      | Rejected _, (Lookup | Publish) when not sentinel ->
        push (fail "serve" "request %d rejected despite a clustered origin" i)
      | Rejected _, Route dst
        when Option.is_some (tree_distance plan rq.origin dst) ->
        push (fail "serve" "same-tree route %d rejected" i)
      | Rejected _, _ -> ()
      | Answered { hops; answer; _ }, (Lookup | Publish) ->
        if sentinel then
          push (fail "serve" "request %d answered from a sentinel origin" i)
        else begin
          if answer <> plan.dominator.(rq.origin) then
            push
              (fail "serve" "request %d answered by %d, expected dominator %d" i
                 answer plan.dominator.(rq.origin));
          if hops <> 2 * plan.depth.(rq.origin) then
            push
              (fail "serve" "request %d took %d hops, expected %d" i hops
                 (2 * plan.depth.(rq.origin)))
        end
      | Answered { hops; answer; _ }, Route dst -> (
        match tree_distance plan rq.origin dst with
        | None when dst = rq.origin ->
          if hops <> 0 then push (fail "serve" "self-route %d took %d hops" i hops)
        | None -> push (fail "serve" "cross-tree route %d answered" i)
        | Some d ->
          if answer <> dst then
            push (fail "serve" "route %d acknowledged by %d, not %d" i answer dst);
          if hops <> 2 * d then
            push
              (fail "serve" "route %d took %d hops, expected %d" i hops (2 * d))))
    cfg.requests;
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* crash-mid-traffic composition *)

type handover = {
  phase1 : report;
  repair : Repair.report;
  healed_plan : Repair.plan;
  retried : int array;
  phase2 : report option;
  alive : bool array;
  dead_edges : (int * int) list;
}

let with_repair ?trace ?corrupt ~beta ~lease ~settle e cfg ~churn =
  let g = Engine.graph e in
  validate g cfg;
  let churn1 = Engine.Churn.compile e churn in
  let states1, _ = run ?trace ?corrupt ~churn:churn1 e cfg in
  let phase1 = decode cfg states1 in
  let alive = Engine.Churn.final_alive churn1 in
  let dead_edges = Engine.Churn.final_edges_down churn1 in
  (* the post-churn topology, replayed instantly for the later phases *)
  let churn0 =
    let evs = ref [] in
    List.iter
      (fun (s, d) -> evs := Engine.Churn.Edge_down { src = s; dst = d; at = 0 } :: !evs)
      dead_edges;
    Array.iteri
      (fun v a -> if not a then evs := Engine.Churn.Crash { node = v; at = 0 } :: !evs)
      alive;
    Engine.Churn.compile e !evs
  in
  let rcfg =
    {
      Repair.plan =
        {
          Repair.dominator = Array.copy cfg.plan.dominator;
          parent = Array.copy cfg.plan.parent;
          depth = Array.copy cfg.plan.depth;
        };
      beta;
      lease;
      dmax = Repair.default_dmax cfg.plan;
      horizon = settle;
    }
  in
  let rstates, _ = Repair.run ?trace ?corrupt ~churn:churn0 e rcfg in
  let repair = Repair.decode rstates in
  let healed_plan =
    {
      Repair.dominator = repair.dominator_of;
      parent = repair.parent_of;
      depth = repair.depth_of;
    }
  in
  Dynamic.normalize healed_plan ~alive;
  let retried =
    let acc = ref [] in
    Array.iteri
      (fun i o ->
        match o with
        | Lost ->
          let rq = cfg.requests.(i) in
          if
            alive.(rq.origin)
            && (match rq.kind with Route d -> alive.(d) | _ -> true)
          then acc := i :: !acc
        | _ -> ())
      phase1.outcomes;
    Array.of_list (List.rev !acc)
  in
  if Array.length retried = 0 then
    { phase1; repair; healed_plan; retried; phase2 = None; alive; dead_edges }
  else begin
    let dmax2 = Array.fold_left max 0 healed_plan.depth in
    let window = 8 in
    let horizon2 =
      window + ((cfg.retries + 1) * cfg.retry_after) + (4 * dmax2) + 8
      + Array.length retried
    in
    let reqs2 =
      Array.mapi
        (fun j i -> { (cfg.requests.(i)) with at = j mod window })
        retried
    in
    let cfg2 = { cfg with plan = healed_plan; requests = reqs2; horizon = horizon2 } in
    let states2, _ = run ?trace ?corrupt ~churn:churn0 e cfg2 in
    let phase2 = Some (decode cfg2 states2) in
    { phase1; repair; healed_plan; retried; phase2; alive; dead_edges }
  end

let surviving_components g ~alive ~dead_edges =
  let n = Graph.n g in
  let dead = Hashtbl.create 16 in
  List.iter
    (fun (s, d) -> Hashtbl.replace dead (min s d, max s d) ())
    dead_edges;
  let usable u v = not (Hashtbl.mem dead (min u v, max u v)) in
  let comp = Array.make n (-1) in
  let next = ref 0 in
  let q = Queue.create () in
  for v = 0 to n - 1 do
    if alive.(v) && comp.(v) < 0 then begin
      comp.(v) <- !next;
      Queue.add v q;
      while not (Queue.is_empty q) do
        let x = Queue.pop q in
        Array.iter
          (fun (u, _) ->
            if alive.(u) && comp.(u) < 0 && usable x u then begin
              comp.(u) <- !next;
              Queue.add u q
            end)
          (Graph.neighbors g x)
      done;
      incr next
    end
  done;
  (comp, !next)

let check_handover g cfg h =
  let comp, ncomp = surviving_components g ~alive:h.alive ~dead_edges:h.dead_edges in
  let has_center = Array.make (max 1 ncomp) false in
  Array.iteri
    (fun v d -> if h.alive.(v) && d = v then has_center.(comp.(v)) <- true)
    h.healed_plan.dominator;
  (* terminal outcome per original request, and which phase produced it *)
  let final = Array.copy h.phase1.outcomes in
  let phase_of = Array.make (Array.length final) 1 in
  (match h.phase2 with
  | None -> ()
  | Some p2 ->
    Array.iteri
      (fun j i ->
        if final.(i) = Lost then begin
          final.(i) <- p2.outcomes.(j);
          phase_of.(i) <- 2
        end)
      h.retried);
  let failures = ref [] in
  let push f = failures := f :: !failures in
  Array.iteri
    (fun i rq ->
      let exempt =
        (not h.alive.(rq.origin))
        || (match rq.kind with Route d -> not h.alive.(d) | _ -> false)
        || not has_center.(comp.(rq.origin))
      in
      if not exempt then begin
        match final.(i) with
        | Lost -> push (fail "serve.eventual" "surviving request %d never answered" i)
        | Answered _ -> ()
        | Rejected _ -> (
          match rq.kind with
          | Lookup | Publish ->
            (* only a sentinel origin may be refused, and only in the phase
               whose plan carried the sentinel *)
            let plan =
              if phase_of.(i) = 1 then cfg.plan else h.healed_plan
            in
            if plan.dominator.(rq.origin) >= 0 then
              push
                (fail "serve.eventual"
                   "surviving request %d rejected despite a clustered origin" i)
          | Route dst ->
            let plan = if phase_of.(i) = 1 then cfg.plan else h.healed_plan in
            if Option.is_some (tree_distance plan rq.origin dst) then
              push
                (fail "serve.eventual" "same-cluster route %d rejected" i))
      end)
    cfg.requests;
  List.rev !failures
