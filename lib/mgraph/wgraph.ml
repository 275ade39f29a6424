(* Flat per-vertex slots: [nbr.(u).(i)] / [wt.(u).(i)] for i < [deg.(u)]
   are u's neighbours and edge weights; slots at and beyond [deg.(u)] are
   spare capacity.  Every vertex starts on the shared empty arrays and gets
   its own on its first edge, so building a graph costs one allocation per
   touched vertex (plus doublings), not a hash table per vertex. *)

type t = {
  nbr : int array array;
  wt : Float.Array.t array;
  deg : int array;
  mutable m : int;
}

let no_ids : int array = [||]
let no_weights = Float.Array.create 0

let create n =
  if n < 0 then invalid_arg "Wgraph.create: negative size";
  { nbr = Array.make n no_ids; wt = Array.make n no_weights; deg = Array.make n 0; m = 0 }

let n g = Array.length g.deg

let m g = g.m

let check_vertex g u name =
  if u < 0 || u >= n g then invalid_arg (Printf.sprintf "Wgraph.%s: vertex %d out of range" name u)

(* Slot of [v] among [u]'s live slots, or -1. *)
let slot g u v =
  let ids = g.nbr.(u) in
  let i = ref (g.deg.(u) - 1) in
  while !i >= 0 && Array.unsafe_get ids !i <> v do
    decr i
  done;
  !i

(* Membership scans the endpoint with fewer live slots. *)
let lighter g u v = if g.deg.(u) <= g.deg.(v) then u else v

let has_edge g u v =
  check_vertex g u "has_edge";
  check_vertex g v "has_edge";
  let x = lighter g u v in
  slot g x (u + v - x) >= 0

let push g u v w =
  let d = g.deg.(u) in
  if d = Array.length g.nbr.(u) then begin
    let cap = max 4 (2 * d) in
    let ids = Array.make cap 0 and ws = Float.Array.create cap in
    Array.blit g.nbr.(u) 0 ids 0 d;
    Float.Array.blit g.wt.(u) 0 ws 0 d;
    g.nbr.(u) <- ids;
    g.wt.(u) <- ws
  end;
  g.nbr.(u).(d) <- v;
  Float.Array.set g.wt.(u) d w;
  g.deg.(u) <- d + 1

(* Moves [u]'s last live slot into slot [i]. *)
let drop g u i =
  let last = g.deg.(u) - 1 in
  g.nbr.(u).(i) <- g.nbr.(u).(last);
  Float.Array.set g.wt.(u) i (Float.Array.get g.wt.(u) last);
  g.deg.(u) <- last

let add_edge g u v w =
  check_vertex g u "add_edge";
  check_vertex g v "add_edge";
  if u = v then invalid_arg "Wgraph.add_edge: self-loop";
  if w < 0.0 || Float.is_nan w then invalid_arg "Wgraph.add_edge: negative weight";
  let x = lighter g u v in
  let y = u + v - x in
  let i = slot g x y in
  if i >= 0 then begin
    Float.Array.set g.wt.(x) i w;
    Float.Array.set g.wt.(y) (slot g y x) w
  end
  else begin
    push g u v w;
    push g v u w;
    g.m <- g.m + 1
  end

let remove_edge g u v =
  check_vertex g u "remove_edge";
  check_vertex g v "remove_edge";
  let x = lighter g u v in
  let y = u + v - x in
  let i = slot g x y in
  if i >= 0 then begin
    drop g x i;
    drop g y (slot g y x);
    g.m <- g.m - 1
  end

let weight g u v =
  check_vertex g u "weight";
  check_vertex g v "weight";
  let x = lighter g u v in
  let i = slot g x (u + v - x) in
  if i < 0 then None else Some (Float.Array.get g.wt.(x) i)

let slot_ids g u = g.nbr.(u)

let slot_weights g u = g.wt.(u)

let iter_neighbors g u f =
  check_vertex g u "iter_neighbors";
  let ids = g.nbr.(u) and ws = g.wt.(u) in
  for i = 0 to g.deg.(u) - 1 do
    f ids.(i) (Float.Array.get ws i)
  done

let degree g u =
  check_vertex g u "degree";
  g.deg.(u)

let iter_edges g f =
  for u = 0 to n g - 1 do
    let ids = g.nbr.(u) and ws = g.wt.(u) in
    for i = 0 to g.deg.(u) - 1 do
      let v = ids.(i) in
      if u < v then f u v (Float.Array.get ws i)
    done
  done

let edges g =
  let acc = ref [] in
  iter_edges g (fun u v w -> acc := (u, v, w) :: !acc);
  !acc

let total_weight g =
  let acc = ref 0.0 in
  for u = 0 to n g - 1 do
    let ids = g.nbr.(u) and ws = g.wt.(u) in
    for i = 0 to g.deg.(u) - 1 do
      if u < ids.(i) then acc := !acc +. Float.Array.get ws i
    done
  done;
  !acc

let copy g =
  let size = n g in
  let nbr = Array.make size no_ids and wt = Array.make size no_weights in
  for u = 0 to size - 1 do
    let d = g.deg.(u) in
    if d > 0 then begin
      nbr.(u) <- Array.sub g.nbr.(u) 0 d;
      wt.(u) <- Float.Array.sub g.wt.(u) 0 d
    end
  done;
  { nbr; wt; deg = Array.copy g.deg; m = g.m }

let of_edges size es =
  let g = create size in
  List.iter (fun (u, v, w) -> add_edge g u v w) es;
  g

let equal a b =
  n a = n b && m a = m b
  && begin
       let ok = ref true in
       iter_edges a (fun u v w ->
           match weight b u v with
           | Some w' when w' = w -> ()
           | _ -> ok := false);
       !ok
     end

let pp fmt g =
  Format.fprintf fmt "@[<v>graph n=%d m=%d" (n g) (m g);
  let es = List.sort compare (edges g) in
  List.iter (fun (u, v, w) -> Format.fprintf fmt "@,  %d -- %d  (%g)" u v w) es;
  Format.fprintf fmt "@]"
