(* Shared helpers for the test suites. *)

let approx ?(tol = 1e-6) a b = Gncg_util.Flt.approx_eq ~tol a b

let check_float ?(tol = 1e-6) name expected actual =
  if not (approx ~tol expected actual) then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

let check_true name b = Alcotest.(check bool) name true b

let check_false name b = Alcotest.(check bool) name false b

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  nl = 0
  ||
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let case name f = Alcotest.test_case name `Quick f

let slow_case name f = Alcotest.test_case name `Slow f

let rng seed = Gncg_util.Prng.create seed

(* A small random sparse connected graph for substrate tests. *)
let random_graph ?(wmin = 1.0) ?(wmax = 10.0) r n extra =
  let g = Gncg_graph.Wgraph.create n in
  for i = 1 to n - 1 do
    let j = Gncg_util.Prng.int r i in
    Gncg_graph.Wgraph.add_edge g i j (Gncg_util.Prng.float_in r wmin wmax)
  done;
  let added = ref 0 in
  while !added < extra do
    let u = Gncg_util.Prng.int r n and v = Gncg_util.Prng.int r n in
    if u <> v && not (Gncg_graph.Wgraph.has_edge g u v) then begin
      Gncg_graph.Wgraph.add_edge g u v (Gncg_util.Prng.float_in r wmin wmax);
      incr added
    end
  done;
  g

(* The Reference single-move scan: the spec the equilibrium scans are
   differential-tested against.  Per agent, one network build for the
   incumbent cost ([Cost.agent_cost]) and [Greedy.best_single_move_cost],
   which rebuilds the network and runs a fresh Dijkstra per candidate. *)
let reference_kinds = function
  | Gncg.Equilibrium.AE -> [ `Add ]
  | Gncg.Equilibrium.GE -> [ `Add; `Delete; `Swap ]
  | Gncg.Equilibrium.NE -> invalid_arg "reference_kinds: NE has no single-move spec"

let reference_costs kind host s u =
  let graph = Gncg.Network.graph host s in
  ( Gncg.Cost.agent_cost ~graph host s u,
    Gncg.Greedy.best_single_move_cost ~kinds:(reference_kinds kind) ~graph host s ~agent:u )

let reference_happy kind host s u =
  let current, best = reference_costs kind host s u in
  Gncg_util.Flt.le current best

let reference_unhappy kind host s =
  List.filter (fun u -> not (reference_happy kind host s u)) (List.init (Gncg.Strategy.n s) Fun.id)

(* The unpruned social-optimum local search: the spec the pruned
   [Social_optimum.greedy_heuristic] is differential-tested against.
   Every candidate addition pays the O(n²) what-if total and every
   candidate removal a full [Cost.network_social_cost]; the sequence of
   graph edits is the library's, so slot order and hence every float
   agree. *)
let reference_greedy_heuristic host =
  let module Wgraph = Gncg_graph.Wgraph in
  let module Dm = Gncg_graph.Dist_matrix in
  let n = Gncg.Host.n host in
  let alpha = Gncg.Host.alpha host in
  let eps = Gncg_util.Flt.eps in
  let g =
    Wgraph.of_edges n (Gncg_graph.Mst.prim_complete n (fun u v -> Gncg.Host.weight host u v))
  in
  let best_addition dm current edge_weight_total =
    let best_delta = ref 0.0 and best = ref None in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        let w = Gncg.Host.weight host u v in
        if Float.is_finite w && not (Wgraph.has_edge g u v) then begin
          let c = (alpha *. (edge_weight_total +. w)) +. Dm.total_with_edge_added dm u v w in
          let delta = c -. current in
          if delta < !best_delta -. eps then begin
            best_delta := delta;
            best := Some (u, v, w)
          end
        end
      done
    done;
    !best
  in
  let best_removal current =
    let best_delta = ref 0.0 and best = ref None in
    List.iter
      (fun (u, v, w) ->
        Wgraph.remove_edge g u v;
        let c = Gncg.Cost.network_social_cost host g in
        Wgraph.add_edge g u v w;
        let delta = c -. current in
        if delta < !best_delta -. eps then begin
          best_delta := delta;
          best := Some (u, v)
        end)
      (Wgraph.edges g);
    !best
  in
  let dm = ref (Dm.of_graph g) in
  let weight_total = ref (Wgraph.total_weight g) in
  let current = ref ((alpha *. !weight_total) +. Dm.total !dm) in
  let adding = ref true in
  while !adding do
    match best_addition !dm !current !weight_total with
    | Some (u, v, w) ->
      Wgraph.add_edge g u v w;
      Dm.add_edge !dm u v w;
      weight_total := !weight_total +. w;
      current := (alpha *. !weight_total) +. Dm.total !dm
    | None -> adding := false
  done;
  let improved = ref true in
  while !improved do
    improved := false;
    let dm = Dm.of_graph g in
    let current = Gncg.Cost.network_social_cost host g in
    let add = best_addition dm current (Wgraph.total_weight g) in
    let remove = best_removal current in
    let delta_of_add =
      match add with
      | None -> 0.0
      | Some (u, v, w) ->
        (alpha *. (Wgraph.total_weight g +. w)) +. Dm.total_with_edge_added dm u v w -. current
    in
    let delta_of_remove =
      match remove with
      | None -> 0.0
      | Some (u, v) ->
        let w = Option.get (Wgraph.weight g u v) in
        Wgraph.remove_edge g u v;
        let c = Gncg.Cost.network_social_cost host g in
        Wgraph.add_edge g u v w;
        c -. current
    in
    match (add, remove) with
    | Some (u, v, w), _ when delta_of_add <= delta_of_remove ->
      Wgraph.add_edge g u v w;
      improved := true
    | _, Some (u, v) when delta_of_remove < 0.0 ->
      Wgraph.remove_edge g u v;
      improved := true
    | Some (u, v, w), None ->
      Wgraph.add_edge g u v w;
      improved := true
    | _ -> ()
  done;
  (g, Gncg.Cost.network_social_cost host g)
