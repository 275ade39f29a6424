(* The one Dijkstra loop.  The workspace owns an unboxed distance row and
   an indexed heap keyed by that row, and the loop walks the graph's flat
   slots, so only ints cross calls and a pass allocates nothing.  Every
   entry point below runs [settle] and copies the row out. *)

type workspace = { dist : Float.Array.t; heap : Binary_heap.t }

let workspace n =
  let dist = Float.Array.make n Float.infinity in
  { dist; heap = Binary_heap.create dist }

(* Settles the vertices reachable from [s] into [ws.dist.(0 .. n-1)].
   When [parent] is non-empty it receives each settled vertex's
   shortest-path-tree parent (the caller initialises it to -1).  Vertices
   popped beyond [limit] are reset to infinity (and no parent) instead of
   relaxed. *)
let settle ws g s ~limit parent =
  let n = Wgraph.n g in
  if s < 0 || s >= n then invalid_arg "Dijkstra: source out of range";
  if Float.Array.length ws.dist < n then invalid_arg "Dijkstra: workspace smaller than graph";
  let dist = ws.dist and heap = ws.heap in
  let track = Array.length parent > 0 in
  Float.Array.fill dist 0 n Float.infinity;
  Binary_heap.clear heap;
  Float.Array.unsafe_set dist s 0.0;
  Binary_heap.insert heap s;
  let next = ref (Binary_heap.pop_min heap) in
  while !next >= 0 do
    let u = !next in
    let du = Float.Array.unsafe_get dist u in
    if du <= limit then begin
      let ids = Wgraph.slot_ids g u and wts = Wgraph.slot_weights g u in
      for i = 0 to Wgraph.degree g u - 1 do
        let v = Array.unsafe_get ids i in
        let dv = du +. Float.Array.unsafe_get wts i in
        if dv < Float.Array.unsafe_get dist v then begin
          Float.Array.unsafe_set dist v dv;
          if track then parent.(v) <- u;
          Binary_heap.insert_or_decrease heap v
        end
      done
    end
    else begin
      (* Keys pop in order: every vertex still queued lies beyond [limit]
         too, and takes this branch in turn. *)
      Float.Array.unsafe_set dist u Float.infinity;
      if track then parent.(u) <- -1
    end;
    next := Binary_heap.pop_min heap
  done

let no_parents : int array = [||]

let copy_row ws n dst =
  for v = 0 to n - 1 do
    Array.unsafe_set dst v (Float.Array.unsafe_get ws.dist v)
  done

let sssp_into ws g s dist =
  let n = Wgraph.n g in
  if Array.length dist < n then invalid_arg "Dijkstra.sssp_into: row too short";
  settle ws g s ~limit:Float.infinity no_parents;
  copy_row ws n dist

let sssp_flat_into ws g s dist off =
  let n = Wgraph.n g in
  if off < 0 || off + n > Float.Array.length dist then
    invalid_arg "Dijkstra.sssp_flat_into: offset out of range";
  settle ws g s ~limit:Float.infinity no_parents;
  Float.Array.blit ws.dist 0 dist off n

(* The allocating entry points: a fresh workspace per call. *)
let run g s ~limit parent =
  let n = Wgraph.n g in
  let ws = workspace n in
  settle ws g s ~limit parent;
  let dist = Array.make n Float.infinity in
  copy_row ws n dist;
  dist

let sssp g s = run g s ~limit:Float.infinity no_parents

let sssp_with_parents g s =
  let parent = Array.make (Wgraph.n g) (-1) in
  let dist = run g s ~limit:Float.infinity parent in
  (dist, parent)

let sssp_bounded g s limit = run g s ~limit no_parents

let distance g u v = (sssp g u).(v)

let apsp ?(exec = Gncg_util.Exec.Seq) g =
  Gncg_util.Exec.init ~exec (Wgraph.n g) (fun s -> sssp g s)

let path g u v =
  let dist, parent = sssp_with_parents g u in
  if dist.(v) = Float.infinity then None
  else begin
    let rec build acc x = if x = u then u :: acc else build (x :: acc) parent.(x) in
    Some (build [] v)
  end

let eccentricity g u = Gncg_util.Flt.max_array (sssp g u)

(* Below this size the ~0.1 ms domain-spawn cost dwarfs the sweep itself;
   the bench harness measures the crossover. *)
let parallel_threshold = 64

let eccentricities ?domains g =
  let n = Wgraph.n g in
  if n = 0 then [||]
  else begin
    let rows =
      if n >= parallel_threshold then apsp ~exec:(Gncg_util.Exec.Par { domains }) g
      else apsp g
    in
    Array.map Gncg_util.Flt.max_array rows
  end

let diameter ?domains g =
  let n = Wgraph.n g in
  if n <= 1 then 0.0 else Gncg_util.Flt.max_array (eccentricities ?domains g)

let tight du dv w = Gncg_util.Flt.approx_eq (du +. w) dv || Gncg_util.Flt.approx_eq (dv +. w) du
