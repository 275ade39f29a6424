(* Flat row-major storage: one unboxed floatarray of length n² instead of
   n boxed rows.  The O(n²) relaxation loops walk a single contiguous
   buffer (no per-row indirection), and the row snapshots the insertion
   update needs are preallocated workspaces blitted into place — an
   [add_edge] allocates nothing. *)

module Metric = Gncg_obs.Metric

let c_insertions = Metric.Counter.make "dist_matrix.insertions"
let c_whatif_totals = Metric.Counter.make "dist_matrix.whatif_totals"

type t = {
  n : int;
  d : Float.Array.t;        (* n*n, index u*n+v *)
  snap_u : Float.Array.t;   (* reusable row snapshots for add_edge *)
  snap_v : Float.Array.t;
}

let alloc n =
  {
    n;
    d = Float.Array.create (n * n);
    snap_u = Float.Array.create n;
    snap_v = Float.Array.create n;
  }

let of_matrix m =
  let n = Array.length m in
  Array.iter
    (fun row -> if Array.length row <> n then invalid_arg "Dist_matrix.of_matrix: non-square")
    m;
  let t = alloc n in
  for u = 0 to n - 1 do
    let row = m.(u) in
    for v = 0 to n - 1 do
      Float.Array.unsafe_set t.d ((u * n) + v) (Array.unsafe_get row v)
    done
  done;
  t

let recompute t g =
  let n = t.n in
  if Wgraph.n g <> n then invalid_arg "Dist_matrix.recompute: size mismatch";
  let ws = Dijkstra.workspace n in
  for u = 0 to n - 1 do
    Dijkstra.sssp_flat_into ws g u t.d (u * n)
  done

let of_graph g =
  let t = alloc (Wgraph.n g) in
  recompute t g;
  t

let size t = t.n

let check t u name =
  if u < 0 || u >= t.n then invalid_arg (Printf.sprintf "Dist_matrix.%s: out of range" name)

let distance t u v =
  check t u "distance";
  check t v "distance";
  Float.Array.get t.d ((u * t.n) + v)

(* Kahan over [len] entries from [off]; any infinite entry (disconnected
   pair) makes the sum infinite without reaching the compensation.  The
   loop is [Flt.sum]'s, term for term. *)
let sum_slice d off len =
  let s = ref 0.0 and c = ref 0.0 in
  let any_inf = ref false in
  for i = off to off + len - 1 do
    let x = Float.Array.unsafe_get d i in
    if x = Float.infinity then any_inf := true
    else begin
      let y = x -. !c in
      let tt = !s +. y in
      c := tt -. !s -. y;
      s := tt
    end
  done;
  if !any_inf then Float.infinity else !s

let total t = sum_slice t.d 0 (t.n * t.n)

let row_total t u =
  check t u "row_total";
  sum_slice t.d (u * t.n) t.n

let addition_bound t u v w =
  check t u "addition_bound";
  check t v "addition_bound";
  (* With a_x = d(v,x) - d(u,x) - w and b_y = d(u,y) - d(v,y) - w, the
     triangle inequality bounds the gain of routing x -> u -> v -> y by
     min(a_x, b_y), and it is positive only for x in X = {a > 0} and
     y in Y = {b > 0}; the route v -> u is the mirror image.  Summing,
     total - total' <= 2 Σ_{X×Y} min(a_x, b_y)
                   <= 2 min(|Y| Σ_X a, |X| Σ_Y b).
     Rows u and v are the only entries read. *)
  let n = t.n in
  let ubase = u * n and vbase = v * n in
  let sum_a = ref 0.0 and sum_b = ref 0.0 in
  let nx = ref 0 and ny = ref 0 in
  let any_inf = ref false in
  for x = 0 to n - 1 do
    let dux = Float.Array.unsafe_get t.d (ubase + x)
    and dvx = Float.Array.unsafe_get t.d (vbase + x) in
    if dux = Float.infinity || dvx = Float.infinity then any_inf := true
    else begin
      let a = dvx -. dux -. w and b = dux -. dvx -. w in
      if a > 0.0 then begin
        sum_a := !sum_a +. a;
        incr nx
      end
      else if b > 0.0 then begin
        sum_b := !sum_b +. b;
        incr ny
      end
    end
  done;
  if !any_inf then Float.infinity
  else
    2.0 *. Float.min (float_of_int !ny *. !sum_a) (float_of_int !nx *. !sum_b)

let copy t =
  let t' = alloc t.n in
  Float.Array.blit t.d 0 t'.d 0 (t.n * t.n);
  t'

let add_edge t u v w =
  check t u "add_edge";
  check t v "add_edge";
  Metric.Counter.incr c_insertions;
  if u = v then invalid_arg "Dist_matrix.add_edge: self-loop";
  if w < 0.0 || Float.is_nan w then invalid_arg "Dist_matrix.add_edge: negative weight";
  let n = t.n in
  if w < Float.Array.get t.d ((u * n) + v) then begin
    (* Rows u and v are read while every row (incl. themselves) is being
       written: snapshot them into the reusable workspaces first. *)
    let du = t.snap_u and dv = t.snap_v in
    Float.Array.blit t.d (u * n) du 0 n;
    Float.Array.blit t.d (v * n) dv 0 n;
    for x = 0 to n - 1 do
      let base = x * n in
      let dxu = Float.Array.unsafe_get du x and dxv = Float.Array.unsafe_get dv x in
      (* min over the three routings; written to avoid inf arithmetic
         pitfalls (inf + finite = inf is fine; no inf - inf appears). *)
      for y = 0 to n - 1 do
        let via_uv = dxu +. w +. Float.Array.unsafe_get dv y in
        let via_vu = dxv +. w +. Float.Array.unsafe_get du y in
        let cur = Float.Array.unsafe_get t.d (base + y) in
        let best = Float.min cur (Float.min via_uv via_vu) in
        if best < cur then Float.Array.unsafe_set t.d (base + y) best
      done
    done
  end

let with_edge_added t u v w =
  let t' = copy t in
  add_edge t' u v w;
  t'

let total_with_edge_added t u v w =
  check t u "total_with_edge_added";
  check t v "total_with_edge_added";
  Metric.Counter.incr c_whatif_totals;
  let n = t.n in
  if w >= Float.Array.get t.d ((u * n) + v) then total t
  else begin
    let ubase = u * n and vbase = v * n in
    let s = ref 0.0 and c = ref 0.0 in
    let any_inf = ref false in
    for x = 0 to n - 1 do
      let base = x * n in
      let dxu = Float.Array.unsafe_get t.d (ubase + x)
      and dxv = Float.Array.unsafe_get t.d (vbase + x) in
      for y = 0 to n - 1 do
        let via_uv = dxu +. w +. Float.Array.unsafe_get t.d (vbase + y) in
        let via_vu = dxv +. w +. Float.Array.unsafe_get t.d (ubase + y) in
        let d =
          Float.min (Float.Array.unsafe_get t.d (base + y)) (Float.min via_uv via_vu)
        in
        if d = Float.infinity then any_inf := true
        else begin
          let y' = d -. !c in
          let tt = !s +. y' in
          c := tt -. !s -. y';
          s := tt
        end
      done
    done;
    if !any_inf then Float.infinity else !s
  end
