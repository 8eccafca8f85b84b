type bfs = {
  source : int;
  dist : int array;
  parent : int array;
  parent_edge : int array;
  order : int array;
}

let bfs_from_sources g sources source_label =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  (* the visit order is the FIFO queue itself: [queue.(0 .. tail-1)] *)
  let queue = Array.make n 0 in
  let tail = ref 0 in
  List.iter
    (fun s ->
      if dist.(s) = max_int then begin
        dist.(s) <- 0;
        queue.(!tail) <- s;
        incr tail
      end)
    sources;
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    Array.iter
      (fun (u, (e : Graph.edge)) ->
        if dist.(u) = max_int then begin
          dist.(u) <- dist.(v) + 1;
          parent.(u) <- v;
          parent_edge.(u) <- e.id;
          queue.(!tail) <- u;
          incr tail
        end)
      (Graph.neighbors g v)
  done;
  { source = source_label; dist; parent; parent_edge; order = Array.sub queue 0 !tail }

let bfs g s = bfs_from_sources g [ s ] s
let bfs_multi g sources = bfs_from_sources g sources (-1)
let distances_from g s = (bfs g s).dist

let eccentricity g v =
  let d = distances_from g v in
  Array.fold_left
    (fun acc x ->
      if x = max_int then invalid_arg "Traversal.eccentricity: disconnected"
      else max acc x)
    0 d

let diameter g =
  let n = Graph.n g in
  if n = 0 then 0
  else begin
    let best = ref 0 in
    for v = 0 to n - 1 do
      best := max !best (eccentricity g v)
    done;
    !best
  end

let radius_and_center g =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Traversal.radius_and_center: empty graph";
  let best = ref max_int and center = ref 0 in
  for v = 0 to n - 1 do
    let e = eccentricity g v in
    if e < !best then begin
      best := e;
      center := v
    end
  done;
  (!best, !center)

let components g =
  let n = Graph.n g in
  let label = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if label.(v) = -1 then begin
      let id = !next in
      incr next;
      let stack = Stack.create () in
      Stack.push v stack;
      label.(v) <- id;
      while not (Stack.is_empty stack) do
        let x = Stack.pop stack in
        Array.iter
          (fun (u, _) ->
            if label.(u) = -1 then begin
              label.(u) <- id;
              Stack.push u stack
            end)
          (Graph.neighbors g x)
      done
    end
  done;
  (label, !next)
