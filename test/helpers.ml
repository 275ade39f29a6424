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
