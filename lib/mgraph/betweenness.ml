(* Brandes (2001), weighted variant: one Dijkstra per source with
   shortest-path counting, then dependency accumulation in reverse settled
   order. *)

let eps = 1e-12

type pass = {
  sigma : float array;  (* number of shortest paths from the source *)
  order : int list;     (* settled vertices, farthest first *)
  preds : int list array;  (* shortest-path predecessors *)
}

let single_source g s =
  let n = Wgraph.n g in
  let dist = Float.Array.make n Float.infinity in
  let sigma = Array.make n 0.0 in
  let preds = Array.make n [] in
  let heap = Binary_heap.create dist in
  let settled = ref [] in
  Float.Array.set dist s 0.0;
  sigma.(s) <- 1.0;
  Binary_heap.insert heap s;
  let next = ref (Binary_heap.pop_min heap) in
  while !next >= 0 do
    let u = !next in
    let du = Float.Array.get dist u in
    settled := u :: !settled;
    Wgraph.iter_neighbors g u (fun v w ->
        let dv = du +. w in
        if dv < Float.Array.get dist v -. eps then begin
          Float.Array.set dist v dv;
          sigma.(v) <- sigma.(u);
          preds.(v) <- [ u ];
          Binary_heap.insert_or_decrease heap v
        end
        else if Float.abs (dv -. Float.Array.get dist v) <= eps then begin
          sigma.(v) <- sigma.(v) +. sigma.(u);
          preds.(v) <- u :: preds.(v)
        end);
    next := Binary_heap.pop_min heap
  done;
  { sigma; order = !settled; preds }

let accumulate g s ~on_vertex ~on_edge =
  let n = Wgraph.n g in
  let p = single_source g s in
  let delta = Array.make n 0.0 in
  List.iter
    (fun w ->
      List.iter
        (fun v ->
          let share = p.sigma.(v) /. p.sigma.(w) *. (1.0 +. delta.(w)) in
          delta.(v) <- delta.(v) +. share;
          on_edge (min v w, max v w) share)
        p.preds.(w);
      if w <> s then on_vertex w delta.(w))
    p.order

let vertex g =
  let n = Wgraph.n g in
  let bc = Array.make n 0.0 in
  for s = 0 to n - 1 do
    accumulate g s ~on_vertex:(fun v d -> bc.(v) <- bc.(v) +. d) ~on_edge:(fun _ _ -> ())
  done;
  bc

let edge g =
  let tbl = Hashtbl.create (Wgraph.m g) in
  Wgraph.iter_edges g (fun u v _ -> Hashtbl.replace tbl (u, v) 0.0);
  for s = 0 to Wgraph.n g - 1 do
    accumulate g s
      ~on_vertex:(fun _ _ -> ())
      ~on_edge:(fun key share ->
        match Hashtbl.find_opt tbl key with
        | Some acc -> Hashtbl.replace tbl key (acc +. share)
        | None -> ())
  done;
  Hashtbl.fold (fun key acc l -> (key, acc) :: l) tbl [] |> List.sort compare

let distance_cost_via_betweenness g =
  let n = Wgraph.n g in
  (* Disconnected pairs contribute infinity; detect them first. *)
  let connected = n <= 1 || Connectivity.is_connected g in
  if not connected then Float.infinity
  else begin
    (* Each ordered pair (s,t) spreads its distance d(s,t) fractionally
       over its shortest-path edges, so summing w(e) x betweenness(e)
       recovers the total ordered-pair distance: running Brandes from all
       n sources already counts both directions of every pair. *)
    let total = ref 0.0 in
    let weights = Hashtbl.create (Wgraph.m g) in
    Wgraph.iter_edges g (fun u v w -> Hashtbl.replace weights (u, v) w);
    List.iter
      (fun (key, b) ->
        match Hashtbl.find_opt weights key with
        | Some w -> total := !total +. (w *. b)
        | None -> ())
      (edge g);
    !total
  end
