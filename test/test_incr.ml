(* Property tests for the incremental distance engine (Incr_apsp /
   Net_state) and the parallel equilibrium scans: every fast path must
   agree with its from-scratch reference within the engine tolerance. *)

module Prng = Gncg_util.Prng
module Flt = Gncg_util.Flt
module Wgraph = Gncg_graph.Wgraph
module Incr_apsp = Gncg_graph.Incr_apsp
module Strategy = Gncg.Strategy

let seed_gen = QCheck.small_nat

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let matrices_agree a b =
  let n = Array.length a in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if not (Flt.approx_eq ~tol:1e-6 a.(u).(v) b.(u).(v)) then ok := false
    done
  done;
  !ok

let random_connected_graph r n =
  let g = Wgraph.create n in
  let order = Prng.permutation r n in
  for i = 1 to n - 1 do
    Wgraph.add_edge g order.(i) order.(Prng.int r i) (Prng.float_in r 0.5 9.0)
  done;
  for _ = 1 to n do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v && not (Wgraph.has_edge g u v) then
      Wgraph.add_edge g u v (Prng.float_in r 0.5 9.0)
  done;
  g

(* The maintained matrix equals a from-scratch APSP after an arbitrary
   interleaving of edge insertions and deletions (including ones that
   disconnect the graph). *)
let prop_incr_apsp_matches_scratch seed =
  let r = Prng.create (seed + 101) in
  let n = 4 + Prng.int r 10 in
  let incr = Incr_apsp.of_graph (random_connected_graph r n) in
  let g = Incr_apsp.graph incr in
  let ok = ref true in
  for _ = 1 to 12 do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v then
      if Wgraph.has_edge g u v then ignore (Incr_apsp.remove_edge incr u v)
      else ignore (Incr_apsp.add_edge incr u v (Prng.float_in r 0.5 9.0));
    if not (matrices_agree (Incr_apsp.matrix incr) (Gncg_graph.Dijkstra.apsp g)) then
      ok := false
  done;
  !ok

let random_game seed ~n =
  let r = Prng.create seed in
  let alpha = 0.5 +. Prng.float r 3.0 in
  let model = List.nth Gncg_workload.Instances.default_models (Prng.int r 4) in
  let host = Gncg_workload.Instances.random_host r model ~n ~alpha in
  let s = Gncg_workload.Instances.random_profile r host in
  (r, host, s)

(* Net_state stays consistent with a freshly rebuilt network across a
   random sequence of applied moves, and its O(n) agent cost matches the
   reference evaluation. *)
let prop_net_state_consistent seed =
  let r, host, s = random_game (seed + 102) ~n:7 in
  let st = Gncg.Net_state.create host s in
  let ok = ref true in
  for _ = 1 to 8 do
    let u = Prng.int r 7 in
    (match Gncg.Move.candidates host (Gncg.Net_state.profile st) ~agent:u with
    | [] -> ()
    | cands ->
      let mv = List.nth cands (Prng.int r (List.length cands)) in
      ignore (Gncg.Net_state.apply_move st ~agent:u mv));
    if not (Gncg.Net_state.check_consistent st) then ok := false;
    let p = Gncg.Net_state.profile st in
    for a = 0 to 6 do
      if
        not
          (Flt.approx_eq ~tol:1e-6
             (Gncg.Net_state.agent_cost st a)
             (Gncg.Cost.agent_cost host p a))
      then ok := false
    done
  done;
  !ok

(* set_profile diffs to an arbitrary profile and the matrix follows. *)
let prop_net_state_set_profile seed =
  let r, host, s = random_game (seed + 103) ~n:7 in
  let st = Gncg.Net_state.create host s in
  let s' = Gncg_workload.Instances.random_profile r host in
  Gncg.Net_state.set_profile st s';
  Strategy.equal (Gncg.Net_state.profile st) s' && Gncg.Net_state.check_consistent st

(* State-based single-move evaluation agrees with the reference
   evaluator on every candidate move. *)
let prop_move_gains_state_equivalence seed =
  let r, host, s = random_game (seed + 104) ~n:6 in
  let u = Prng.int r 6 in
  let st = Gncg.Net_state.create host s in
  List.for_all
    (fun (mv, fast) ->
      Flt.approx_eq ~tol:1e-6 fast (Gncg.Greedy.move_gain host s ~agent:u mv))
    (Gncg.Fast_response.move_gains_state st ~agent:u)

(* The pruned best-move search reports the same best gain as the
   exhaustive reference scan (the chosen move may differ only between
   tolerance-tied candidates). *)
let prop_best_move_state_equivalence seed =
  let r, host, s = random_game (seed + 105) ~n:6 in
  let u = Prng.int r 6 in
  let st = Gncg.Net_state.create host s in
  match (Gncg.Fast_response.best_move_state st ~agent:u, Gncg.Greedy.best_move host s ~agent:u) with
  | None, None -> true
  | Some (_, g1), Some (_, g2) -> Flt.approx_eq ~tol:1e-6 g1 g2
  | Some (_, g), None | None, Some (_, g) -> Float.abs g <= 1e-6

(* Incremental dynamics reach a greedy equilibrium, like the reference
   engine (trajectories may split on tolerance ties, so only stability
   of the limit is asserted). *)
let prop_incremental_dynamics_converge_to_ge seed =
  let _, host, s = random_game (seed + 106) ~n:8 in
  match
    Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:4000 ~evaluator:`Incremental Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
      host s
  with
  | Gncg.Dynamics.Converged { profile; _ } -> Gncg.Equilibrium.is_ge host profile
  | _ -> false

(* Parallel equilibrium scans return the sequential verdicts. *)
let prop_parallel_checks_agree seed =
  let _, host, s = random_game (seed + 107) ~n:6 in
  let exec = Gncg_util.Exec.Par { domains = Some 3 } in
  Gncg.Equilibrium.is_ae host s = Gncg.Equilibrium.is_ae ~exec host s
  && Gncg.Equilibrium.is_ge host s = Gncg.Equilibrium.is_ge ~exec host s
  && Gncg.Equilibrium.is_ne host s = Gncg.Equilibrium.is_ne ~exec host s

let prop_parallel_unhappy_agree seed =
  let _, host, s = random_game (seed + 108) ~n:6 in
  List.for_all
    (fun kind ->
      Gncg.Equilibrium.unhappy_agents kind host s
      = Gncg.Equilibrium.unhappy_agents ~exec:(Gncg_util.Exec.Par { domains = Some 3 }) kind host s)
    [ Gncg.Equilibrium.NE; Gncg.Equilibrium.GE; Gncg.Equilibrium.AE ]

let prop_parallel_certify_agree seed =
  let _, host, s = random_game (seed + 109) ~n:6 in
  List.for_all
    (fun kind ->
      match
        ( Gncg.Equilibrium.certify kind host s,
          Gncg.Equilibrium.certify ~exec:(Gncg_util.Exec.Par { domains = Some 3 }) kind host s )
      with
      | Ok (), Ok () -> true
      | Error gs, Error gs' ->
        List.map (fun g -> g.Gncg.Equilibrium.agent) gs
        = List.map (fun g -> g.Gncg.Equilibrium.agent) gs'
      | _ -> false)
    [ Gncg.Equilibrium.NE; Gncg.Equilibrium.GE; Gncg.Equilibrium.AE ]

(* Parallel eccentricity/diameter wrappers match a brute-force fold over
   the APSP matrix. *)
let prop_parallel_diameter_agrees seed =
  let r = Prng.create (seed + 110) in
  let n = 4 + Prng.int r 8 in
  let g = random_connected_graph r n in
  let apsp = Gncg_graph.Dijkstra.apsp g in
  let brute =
    Array.fold_left (fun acc row -> Float.max acc (Flt.max_array row)) 0.0 apsp
  in
  Flt.approx_eq ~tol:1e-9 brute (Gncg_graph.Dijkstra.diameter ~domains:2 g)

(* At the size of a real run (n=60, uniform metric, alpha=2) the
   incremental engine lands on a greedy equilibrium exactly as good as
   the reference engine's (tie-breaking may split the trajectories, so
   the social costs are compared, not the profiles). *)
let test_reference_incremental_n60 () =
  let r = Prng.create 7 in
  let host =
    Gncg.Host.make ~alpha:2.0 (Gncg_metric.Random_host.uniform_metric r ~n:60 ~lo:1.0 ~hi:6.0)
  in
  let start = Gncg_workload.Instances.random_profile r host in
  let converge evaluator =
    match
      Gncg.Dynamics.run
        (Gncg.Dynamics.Config.make ~max_steps:4000 ~evaluator Gncg.Dynamics.Greedy_response
           Gncg.Dynamics.Round_robin)
        host start
    with
    | Gncg.Dynamics.Converged { profile; _ } -> profile
    | _ -> Alcotest.fail "greedy dynamics did not converge at n=60"
  in
  let reference = converge `Reference and incremental = converge `Incremental in
  Helpers.check_true "incremental limit is a GE" (Gncg.Equilibrium.is_ge host incremental);
  Helpers.check_float ~tol:1e-6 "same stable social cost"
    (Gncg.Cost.social_cost host reference)
    (Gncg.Cost.social_cost host incremental)

let suites =
  [
    ( "incremental-engine",
      [
        qtest ~count:25 "incr APSP = scratch APSP" seed_gen prop_incr_apsp_matches_scratch;
        qtest ~count:25 "net-state consistency" seed_gen prop_net_state_consistent;
        qtest ~count:25 "net-state set_profile" seed_gen prop_net_state_set_profile;
        qtest ~count:25 "state move gains = reference" seed_gen prop_move_gains_state_equivalence;
        qtest ~count:25 "pruned best move = reference" seed_gen prop_best_move_state_equivalence;
        qtest ~count:15 "incremental dynamics reach GE" seed_gen
          prop_incremental_dynamics_converge_to_ge;
        qtest ~count:15 "parallel checks = sequential" seed_gen prop_parallel_checks_agree;
        qtest ~count:10 "parallel unhappy = sequential" seed_gen prop_parallel_unhappy_agree;
        qtest ~count:10 "parallel certify = sequential" seed_gen prop_parallel_certify_agree;
        qtest ~count:20 "parallel diameter identity" seed_gen prop_parallel_diameter_agrees;
        Helpers.slow_case "reference = incremental dynamics at n=60"
          test_reference_incremental_n60;
      ] );
  ]
