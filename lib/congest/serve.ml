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
  else if plan.dominator.(u) < 0 || plan.dominator.(v) < 0 then None
  else if plan.dominator.(u) <> plan.dominator.(v) then None
  else begin
    let a = ref u and b = ref v and d = ref 0 in
    while plan.depth.(!a) > plan.depth.(!b) do
      a := plan.parent.(!a);
      incr d
    done;
    while plan.depth.(!b) > plan.depth.(!a) do
      b := plan.parent.(!b);
      incr d
    done;
    while !a <> !b do
      a := plan.parent.(!a);
      b := plan.parent.(!b);
      d := !d + 2
    done;
    Some !d
  end

(* Per-node serving tables, allocated lazily: an idle relay that never sees
   a frame costs one option word, so million-node runs stay cheap. *)
type tabs = {
  crumbs : (int, int) Hashtbl.t; (* request -> neighbor the reply goes to *)
  outq : (int, Engine.payload Queue.t) Hashtbl.t; (* neighbor -> queued frames *)
  mutable qlist : int list; (* neighbors with a non-empty queue, ascending *)
  pending : (int, int * int) Hashtbl.t; (* request -> (retry deadline, tries) *)
  results : (int, int * int * int) Hashtbl.t; (* request -> (round, hops, answer) *)
  sent_to : (int, int) Hashtbl.t; (* neighbor -> frames sent (edge load) *)
  mutable inject_idx : int;
  mutable retries_used : int;
  mutable stray : int;
  mutable frames : int;
  mutable q_len : int;
  mutable q_peak : int;
}

type state = {
  mutable tabs : tabs option;
  mutable next_wake : int;
  mutable halted : bool;
}

let mk_tabs () =
  {
    crumbs = Hashtbl.create 4;
    outq = Hashtbl.create 4;
    qlist = [];
    pending = Hashtbl.create 4;
    results = Hashtbl.create 4;
    sent_to = Hashtbl.create 4;
    inject_idx = 0;
    retries_used = 0;
    stray = 0;
    frames = 0;
    q_len = 0;
    q_peak = 0;
  }

let tabs st =
  match st.tabs with
  | Some t -> t
  | None ->
    let t = mk_tabs () in
    st.tabs <- Some t;
    t

let enqueue t u frame =
  let q =
    match Hashtbl.find_opt t.outq u with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.add t.outq u q;
      q
  in
  if Queue.is_empty q then t.qlist <- List.merge compare [ u ] t.qlist;
  Queue.add frame q;
  t.q_len <- t.q_len + 1;
  if t.q_len > t.q_peak then t.q_peak <- t.q_len

let record t req ~round ~hops ~answer =
  if not (Hashtbl.mem t.results req) then begin
    Hashtbl.replace t.results req (round, hops, answer);
    Hashtbl.remove t.pending req
  end

let algorithm g cfg : state Engine.ealgorithm =
  let n = Graph.n g in
  let { plan; requests; horizon; retry_after; retries } = cfg in
  let parent = plan.parent and dom = plan.dominator in
  (* Subtree next-hop tables: down.(a) maps every strict descendant of [a]
     to the child of [a] on the path towards it.  Total size is the sum of
     tree depths, O(n * max depth) worst case — O(n k) for an O(k)-radius
     forest. *)
  let down = Array.make (max 1 n) None in
  for u = 0 to n - 1 do
    let c = ref u and a = ref parent.(u) in
    while !a >= 0 do
      let tbl =
        match down.(!a) with
        | Some t -> t
        | None ->
          let t = Hashtbl.create 8 in
          down.(!a) <- Some t;
          t
      in
      Hashtbl.replace tbl u !c;
      c := !a;
      a := parent.(!a)
    done
  done;
  let route_next v dst =
    match down.(v) with Some tbl -> Hashtbl.find_opt tbl dst | None -> None
  in
  (* Injection timelines per origin, request ids in (round, id) order. *)
  let inj =
    let tmp = Array.make (max 1 n) [] in
    Array.iteri (fun i rq -> tmp.(rq.origin) <- i :: tmp.(rq.origin)) requests;
    Array.map
      (fun ids ->
        Array.of_list
          (List.stable_sort
             (fun i j -> compare (requests.(i).at, i) (requests.(j).at, j))
             (List.rev ids)))
      tmp
  in
  let einit _g v =
    {
      tabs = (if Array.length inj.(v) > 0 then Some (mk_tabs ()) else None);
      next_wake = 0;
      halted = false;
    }
  in
  (* The first frame of a request, from its origin.  Only called when the
     request is not served locally (pending entry exists iff a frame went
     out). *)
  let first_frame t node req =
    match requests.(req).kind with
    | Lookup -> enqueue t parent.(node) [| tag_lookup; req; 0; 1 |]
    | Publish -> enqueue t parent.(node) [| tag_publish; req; 0; 1 |]
    | Route dst -> (
      match route_next node dst with
      | Some c -> enqueue t c [| tag_route; req; dst; 1 |]
      | None -> enqueue t parent.(node) [| tag_route; req; dst; 1 |])
  in
  let inject t node r req =
    match requests.(req).kind with
    | Lookup | Publish ->
      if dom.(node) < 0 then record t req ~round:r ~hops:0 ~answer:(-1)
      else if dom.(node) = node then record t req ~round:r ~hops:0 ~answer:node
      else begin
        first_frame t node req;
        Hashtbl.replace t.pending req (r + retry_after, 0)
      end
    | Route dst ->
      if dst = node then record t req ~round:r ~hops:0 ~answer:node
      else if dom.(node) < 0 then record t req ~round:r ~hops:0 ~answer:(-1)
      else if Option.is_none (route_next node dst) && parent.(node) < 0 then
        (* origin is the root and the destination is not in its tree *)
        record t req ~round:r ~hops:0 ~answer:(-1)
      else begin
        first_frame t node req;
        Hashtbl.replace t.pending req (r + retry_after, 0)
      end
  in
  let estep _g ~round:r ~node st inbox em =
    if st.halted then st
    else if r >= horizon then begin
      st.halted <- true;
      st
    end
    else begin
      let can_send = r < horizon - 1 in
      (* 1. consume the inbox — every frame is [| tag; req; aux; hops |],
         decoded in place from the packed arena *)
      for i = 0 to Engine.Inbox.length inbox - 1 do
        let u = Engine.Inbox.sender inbox i in
        let rd = Engine.Inbox.read inbox i in
        let t = tabs st in
        let tag = Codec.get rd in
        let req = Codec.get rd in
        let aux = Codec.get rd in
        let hops = Codec.get rd in
        if tag = tag_reply then begin
            if requests.(req).origin = node then
              record t req ~round:r ~hops ~answer:aux
            else
              match Hashtbl.find_opt t.crumbs req with
              | Some next ->
                Hashtbl.remove t.crumbs req;
                enqueue t next [| tag_reply; req; aux; hops + 1 |]
              | None -> t.stray <- t.stray + 1
          end
          else if tag = tag_lookup || tag = tag_publish then begin
            if dom.(node) = node then
              enqueue t u [| tag_reply; req; node; hops + 1 |]
            else if parent.(node) >= 0 then begin
              Hashtbl.replace t.crumbs req u;
              enqueue t parent.(node) [| tag; req; aux; hops + 1 |]
            end
            else (* sentinel relay: refuse rather than drop *)
              enqueue t u [| tag_reply; req; -1; hops + 1 |]
          end
          else if tag = tag_route then begin
            let dst = aux in
            if dst = node then enqueue t u [| tag_reply; req; node; hops + 1 |]
            else
              match route_next node dst with
              | Some c ->
                Hashtbl.replace t.crumbs req u;
                enqueue t c [| tag_route; req; dst; hops + 1 |]
              | None ->
                if parent.(node) >= 0 then begin
                  Hashtbl.replace t.crumbs req u;
                  enqueue t parent.(node) [| tag_route; req; dst; hops + 1 |]
                end
                else (* root without the destination: NACK *)
                  enqueue t u [| tag_reply; req; -1; hops + 1 |]
          end
          else invalid_arg (Printf.sprintf "Serve: unknown tag %d" tag)
      done;
      (* 2. due injections *)
      let my = inj.(node) in
      if Array.length my > 0 then begin
        let t = tabs st in
        while
          t.inject_idx < Array.length my
          && requests.(my.(t.inject_idx)).at <= r
        do
          inject t node r my.(t.inject_idx);
          t.inject_idx <- t.inject_idx + 1
        done
      end;
      (* 3. retry deadlines *)
      (match st.tabs with
      | Some t when Hashtbl.length t.pending > 0 ->
        let expired =
          Hashtbl.fold
            (fun req (dl, tries) acc ->
              if dl <= r then (req, tries) :: acc else acc)
            t.pending []
          |> List.sort compare
        in
        List.iter
          (fun (req, tries) ->
            if tries < retries then begin
              first_frame t node req;
              t.retries_used <- t.retries_used + 1;
              Hashtbl.replace t.pending req (r + retry_after, tries + 1)
            end
            else (* out of retries: stop waking for it; decode says Lost *)
              Hashtbl.replace t.pending req (max_int, tries))
          expired
      | _ -> ());
      (* 4. drain at most one frame per neighbor — the CONGEST discipline.
         The queued frame goes straight into the packed send arena. *)
      (match st.tabs with
      | Some t when can_send && t.qlist <> [] ->
        t.qlist <-
          List.filter
            (fun u ->
              let q = Hashtbl.find t.outq u in
              let frame = Queue.pop q in
              Engine.Emit.frame4 em ~dst:u frame.(0) frame.(1) frame.(2)
                frame.(3);
              t.q_len <- t.q_len - 1;
              t.frames <- t.frames + 1;
              Hashtbl.replace t.sent_to u
                (1 + Option.value ~default:0 (Hashtbl.find_opt t.sent_to u));
              not (Queue.is_empty q))
            t.qlist
      | _ -> ());
      (* 5. next wake-up: queued frames next round, else the earliest
         injection or retry deadline, else the final halt *)
      let target =
        match st.tabs with
        | None -> horizon
        | Some t ->
          if t.qlist <> [] then r + 1
          else begin
            let tg = ref horizon in
            if t.inject_idx < Array.length inj.(node) then
              tg := min !tg requests.(inj.(node).(t.inject_idx)).at;
            Hashtbl.iter (fun _ (dl, _) -> if dl < !tg then tg := dl) t.pending;
            !tg
          end
      in
      st.next_wake <- min horizon (max (r + 1) target);
      st
    end
  in
  let ehalted st = st.halted in
  let ewake st =
    if st.halted then Engine.OnMessage else Engine.At st.next_wake
  in
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
}

let hist a =
  let h = Hashtbl.create 16 in
  Array.iter
    (fun v ->
      Hashtbl.replace h v (1 + Option.value ~default:0 (Hashtbl.find_opt h v)))
    a;
  Hashtbl.fold (fun v c acc -> (v, c) :: acc) h [] |> List.sort compare

let percentile a p =
  let len = Array.length a in
  if len = 0 then 0
  else begin
    let idx = (p * len + 99) / 100 - 1 in
    a.(max 0 (min (len - 1) idx))
  end

let decode cfg states =
  let nreq = Array.length cfg.requests in
  let outcomes = Array.make nreq Lost in
  let answered = ref 0
  and rejected = ref 0
  and lost = ref 0
  and local = ref 0 in
  let lat = ref [] and hops_acc = ref [] in
  for i = 0 to nreq - 1 do
    let origin = cfg.requests.(i).origin in
    let res =
      match states.(origin).tabs with
      | Some t -> Hashtbl.find_opt t.results i
      | None -> None
    in
    match res with
    | Some (round, hops, answer) when answer >= 0 ->
      outcomes.(i) <- Answered { round; hops; answer };
      incr answered;
      if hops = 0 then incr local;
      lat := (round - cfg.requests.(i).at) :: !lat;
      hops_acc := hops :: !hops_acc
    | Some (round, hops, _) ->
      outcomes.(i) <- Rejected { round; hops };
      incr rejected
    | None -> incr lost
  done;
  let retries_used = ref 0
  and stray = ref 0
  and frames = ref 0
  and queue_peak = ref 0 in
  let loads = Hashtbl.create 64 in
  Array.iter
    (fun st ->
      match st.tabs with
      | None -> ()
      | Some t ->
        retries_used := !retries_used + t.retries_used;
        stray := !stray + t.stray;
        frames := !frames + t.frames;
        if t.q_peak > !queue_peak then queue_peak := t.q_peak;
        Hashtbl.iter
          (fun _ c ->
            Hashtbl.replace loads c
              (1 + Option.value ~default:0 (Hashtbl.find_opt loads c)))
          t.sent_to)
    states;
  let sorted l =
    let a = Array.of_list l in
    Array.sort compare a;
    a
  in
  {
    outcomes;
    answered = !answered;
    rejected = !rejected;
    lost = !lost;
    local = !local;
    retries_used = !retries_used;
    stray = !stray;
    frames = !frames;
    latencies = sorted !lat;
    hop_counts = sorted !hops_acc;
    edge_load =
      Hashtbl.fold (fun c e acc -> (c, e) :: acc) loads [] |> List.sort compare;
    queue_peak = !queue_peak;
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
    let phase2 = decode cfg2 states2 in
    {
      phase1;
      repair;
      healed_plan;
      retried;
      phase2 = Some phase2;
      alive;
      dead_edges;
    }
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
