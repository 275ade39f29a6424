open Helpers
module Prng = Gncg_util.Prng
module Eq = Gncg.Equilibrium
module Strategy = Gncg.Strategy
module Host = Gncg.Host
module Metric = Gncg_metric.Metric

let unit_host ?(alpha = 1.0) n = Host.make ~alpha (Metric.make n (fun _ _ -> 1.0))

let test_hierarchy_ne_ge_ae () =
  (* Any NE is a GE is an AE: check on the Thm 15 equilibrium. *)
  let host = Gncg_constructions.Thm15_tree_star.host ~alpha:3.0 ~n:6 in
  let s = Gncg_constructions.Thm15_tree_star.ne_profile ~alpha:3.0 ~n:6 in
  check_true "NE" (Eq.is_ne host s);
  check_true "GE" (Eq.is_ge host s);
  check_true "AE" (Eq.is_ae host s)

let test_ae_but_not_ge () =
  (* A doubly-bought edge: no addition helps, but deleting the redundant
     purchase does — AE without GE. *)
  let host = unit_host ~alpha:2.0 2 in
  let s = Strategy.of_lists 2 [ (0, [ 1 ]); (1, [ 0 ]) ] in
  check_true "AE" (Eq.is_ae host s);
  check_false "not GE" (Eq.is_ge host s);
  check_false "not NE" (Eq.is_ne host s)

let test_ge_but_not_ne () =
  (* The GE concept is strictly weaker than NE (Lenzner 2012).  These seeds
     were found by offline search: greedy dynamics converge to a greedy
     equilibrium that an exact multi-edge best response still improves. *)
  let witnesses = ref 0 in
  List.iter
    (fun seed ->
      let r = Prng.create seed in
      let n = 5 + Prng.int r 2 in
      let model = List.nth Gncg_workload.Instances.default_models (Prng.int r 5) in
      let alpha = 0.5 +. Prng.float r 4.0 in
      let host = Gncg_workload.Instances.random_host r model ~n ~alpha in
      let start = Gncg_workload.Instances.random_profile r host in
      match
        Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:2000 Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
      host start
      with
      | Gncg.Dynamics.Converged { profile; _ } ->
        if Eq.is_ge host profile && not (Eq.is_ne host profile) then incr witnesses
      | _ -> ())
    [ 729; 1141; 1387; 1593; 1993 ];
  check_true "found GE that is not NE" (!witnesses > 0)

let test_empty_profile_stability () =
  (* n = 2: buying the single edge turns infinite cost finite, so the empty
     profile is not add-only stable. *)
  check_false "empty not AE (n=2)" (Eq.is_ae (unit_host 2) (Strategy.empty 2));
  (* n = 3: one added edge still leaves the buyer at infinite cost (the
     third agent stays unreachable), so the empty profile is — degenerately
     — add-only stable; a two-edge deviation connects everyone, so it is
     not a NE. *)
  let host = unit_host 3 in
  let s = Strategy.empty 3 in
  check_true "empty is AE (n=3, infinite plateau)" (Eq.is_ae host s);
  check_false "empty not NE (n=3)" (Eq.is_ne host s)

let test_unhappy_agents () =
  let host = unit_host ~alpha:2.0 2 in
  let s = Strategy.of_lists 2 [ (0, [ 1 ]); (1, [ 0 ]) ] in
  Alcotest.(check (list int)) "both owners unhappy (GE)" [ 0; 1 ] (Eq.unhappy_agents Eq.GE host s);
  Alcotest.(check (list int)) "nobody unhappy (AE)" [] (Eq.unhappy_agents Eq.AE host s)

let test_star_ne_alpha_ge_3 () =
  (* Thm 10: for alpha >= 3 any star on a 1-2 host is a NE. *)
  let r = rng 301 in
  for _ = 1 to 5 do
    let n = 6 in
    let m = Gncg_metric.One_two.random r ~n ~p_one:0.5 in
    let host = Host.make ~alpha:(3.0 +. Prng.float r 4.0) m in
    let center = Prng.int r n in
    let s = Strategy.star n ~center in
    check_true "star is NE (Thm 10)" (Eq.is_ne host s)
  done

let test_star_not_ne_small_alpha () =
  (* For alpha < 1/2 every missing 1-edge is an improving buy (Lemma 3), so
     a star over a host with spare 1-edges cannot be a NE. *)
  let m = Gncg_metric.One_two.of_one_edges 4 [ (1, 2); (2, 3); (1, 3) ] in
  let host = Host.make ~alpha:0.3 m in
  let s = Strategy.star 4 ~center:0 in
  check_false "star not NE for tiny alpha" (Eq.is_ne host s)

let test_lemma3_one_edges_improving () =
  (* Lemma 3: for alpha < 1 buying a missing 1-edge strictly improves. *)
  let m = Gncg_metric.One_two.of_one_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let host = Host.make ~alpha:0.9 m in
  (* Path 0-1-2 misses the 1-edge (0,2). *)
  let s = Strategy.of_lists 3 [ (0, [ 1 ]); (1, [ 2 ]) ] in
  let gain = Gncg.Greedy.move_gain host s ~agent:0 (Gncg.Move.Add 2) in
  check_true "buying missing 1-edge improves" (gain > 0.0);
  check_float ~tol:1e-9 "gain is 1 - alpha" (1.0 -. 0.9) gain

let test_approx_factor_at_equilibrium () =
  let host = Gncg_constructions.Thm15_tree_star.host ~alpha:2.0 ~n:6 in
  let s = Gncg_constructions.Thm15_tree_star.ne_profile ~alpha:2.0 ~n:6 in
  check_float ~tol:1e-9 "NE factor is 1" 1.0 (Eq.approx_factor Eq.NE host s);
  check_true "beta-NE for beta=1" (Eq.is_beta Eq.NE ~beta:1.0 host s)

let test_approx_factor_detects_gap () =
  let host = unit_host ~alpha:2.0 2 in
  let s = Strategy.of_lists 2 [ (0, [ 1 ]); (1, [ 0 ]) ] in
  (* Each owner pays 2 + 1 = 3 but could free-ride at 1: factor 3. *)
  check_float ~tol:1e-9 "factor" 3.0 (Eq.approx_factor Eq.NE host s);
  check_true "is 3-NE" (Eq.is_beta Eq.NE ~beta:3.0 host s);
  check_false "not 2-NE" (Eq.is_beta Eq.NE ~beta:2.0 host s)

let test_thm2_ae_is_alpha_plus_one_ge () =
  (* Thm 2: on metric hosts any AE is an (alpha+1)-approximate GE. *)
  let r = rng 302 in
  for _ = 1 to 10 do
    let n = 5 + Prng.int r 3 in
    let alpha = 0.5 +. Prng.float r 2.5 in
    let m = Gncg_metric.Random_host.uniform_metric r ~n ~lo:1.0 ~hi:5.0 in
    let host = Host.make ~alpha m in
    let start = Gncg_workload.Instances.random_profile r host in
    match
      Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:3000 Gncg.Dynamics.Add_only Gncg.Dynamics.Round_robin)
      host start
    with
    | Gncg.Dynamics.Converged { profile; _ } ->
      check_true "converged profile is AE" (Eq.is_ae host profile);
      let factor = Eq.approx_factor Eq.GE host profile in
      check_true "AE is (alpha+1)-GE" (factor <= Gncg.Quality.ae_ge_factor alpha +. 1e-6)
    | _ -> Alcotest.fail "add-only dynamics must converge (monotone)"
  done

let test_cor2_ae_is_3alpha1_ne () =
  (* Cor 2: any AE on a metric host is a 3(alpha+1)-approximate NE. *)
  let r = rng 303 in
  for _ = 1 to 8 do
    let n = 5 + Prng.int r 2 in
    let alpha = 0.5 +. Prng.float r 2.0 in
    let m = Gncg_metric.Random_host.uniform_metric r ~n ~lo:1.0 ~hi:5.0 in
    let host = Host.make ~alpha m in
    let start = Gncg_workload.Instances.random_profile r host in
    match
      Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:3000 Gncg.Dynamics.Add_only Gncg.Dynamics.Round_robin)
      host start
    with
    | Gncg.Dynamics.Converged { profile; _ } ->
      let factor = Eq.approx_factor Eq.NE host profile in
      check_true "AE is 3(alpha+1)-NE" (factor <= Gncg.Quality.ae_ne_factor alpha +. 1e-6)
    | _ -> Alcotest.fail "add-only dynamics must converge"
  done

let test_thm3_ge_is_3ne () =
  (* Thm 3: on metric hosts any GE is a 3-approximate NE. *)
  let r = rng 304 in
  for _ = 1 to 8 do
    let n = 5 + Prng.int r 2 in
    let alpha = 0.5 +. Prng.float r 2.0 in
    let m = Gncg_metric.Random_host.uniform_metric r ~n ~lo:1.0 ~hi:5.0 in
    let host = Host.make ~alpha m in
    let start = Gncg_workload.Instances.random_profile r host in
    match
      Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:5000 Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
      host start
    with
    | Gncg.Dynamics.Converged { profile; _ } ->
      check_true "converged profile is GE" (Eq.is_ge host profile);
      let factor = Eq.approx_factor Eq.NE host profile in
      check_true "GE is 3-NE" (factor <= Gncg.Quality.ge_ne_factor +. 1e-6)
    | _ -> () (* greedy dynamics may cycle: nothing to check *)
  done

let test_certify () =
  (* Stable profile: Ok. *)
  let host = Gncg_constructions.Thm15_tree_star.host ~alpha:2.0 ~n:5 in
  let ne = Gncg_constructions.Thm15_tree_star.ne_profile ~alpha:2.0 ~n:5 in
  (match Eq.certify Eq.NE host ne with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "equilibrium wrongly indicted");
  (* Unstable profile: the double-buy pair must be reported with the right
     numbers. *)
  let host2 = unit_host ~alpha:2.0 2 in
  let s = Strategy.of_lists 2 [ (0, [ 1 ]); (1, [ 0 ]) ] in
  match Eq.certify Eq.NE host2 s with
  | Ok () -> Alcotest.fail "double purchase must be indicted"
  | Error gs ->
    Alcotest.(check int) "both agents" 2 (List.length gs);
    List.iter
      (fun (g : Eq.grievance) ->
        check_float "current" 3.0 g.Eq.current_cost;
        check_float "best" 1.0 g.Eq.best_cost;
        (match g.Eq.deviation with
        | Some set -> check_true "deviation sells the edge" (Strategy.ISet.is_empty set)
        | None -> Alcotest.fail "NE grievances carry the deviation");
        ignore (Format.asprintf "%a" Eq.pp_grievance g))
      gs

let test_oracle_consistency () =
  let r = rng 305 in
  for _ = 1 to 5 do
    let n = 5 in
    let m = Gncg_metric.Random_host.uniform_metric r ~n ~lo:1.0 ~hi:4.0 in
    let host = Host.make ~alpha:1.5 m in
    let s = Gncg_workload.Instances.random_profile r host in
    Alcotest.(check bool)
      "both NE oracles agree"
      (Eq.is_ne ~oracle:`Branch_and_bound host s)
      (Eq.is_ne ~oracle:`Enumerate host s)
  done

(* --- the state-backed scans against the Reference spec --- *)

module Exec = Gncg_util.Exec
module Instances = Gncg_workload.Instances
module C = Gncg_constructions

let kind_name = function Eq.AE -> "AE" | Eq.GE -> "GE" | Eq.NE -> "NE"

(* Every single-move entry point, under Seq and three domains, must
   reproduce the Reference verdicts: the boolean checks, the unhappy
   list, and certify's agents with the spec's costs.  Returns how many
   of the (kind, profile) pairs were stable, so callers can require
   that both verdicts were exercised. *)
let agree_with_reference label host s =
  List.fold_left
    (fun stable kind ->
      let expected = reference_unhappy kind host s in
      List.iter
        (fun exec ->
          let name what =
            Printf.sprintf "%s: %s %s under %s" label (kind_name kind) what (Exec.to_string exec)
          in
          let is_kind = match kind with Eq.AE -> Eq.is_ae | _ -> Eq.is_ge in
          Alcotest.(check bool) (name "is_ae/is_ge") (expected = []) (is_kind ~exec host s);
          Alcotest.(check bool) (name "is_equilibrium") (expected = [])
            (Eq.is_equilibrium ~exec kind host s);
          Alcotest.(check (list int)) (name "unhappy_agents") expected
            (Eq.unhappy_agents ~exec kind host s);
          let grievances = match Eq.certify ~exec kind host s with Ok () -> [] | Error gs -> gs in
          Alcotest.(check (list int)) (name "certify agents") expected
            (List.sort compare (List.map (fun (g : Eq.grievance) -> g.Eq.agent) grievances));
          List.iter
            (fun (g : Eq.grievance) ->
              let current, best = reference_costs kind host s g.Eq.agent in
              check_float (name "current cost") current g.Eq.current_cost;
              check_float (name "best cost") best g.Eq.best_cost)
            grievances)
        [ Exec.Seq; Exec.Par { domains = Some 3 } ];
      if expected = [] then stable + 1 else stable)
    0 [ Eq.AE; Eq.GE ]

(* Each owned edge sold with probability 1/2: often disconnected. *)
let thinned r s =
  List.fold_left
    (fun s (u, v) -> if Prng.bool r then Strategy.sell s u v else s)
    s (Strategy.owned_edges s)

let converged host start rule =
  match
    Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:3000 ~evaluator:`Incremental rule
         Gncg.Dynamics.Round_robin)
      host start
  with
  | Gncg.Dynamics.Converged { profile; _ } -> [ profile ]
  | _ -> []

let test_spec_random_hosts () =
  let r = rng 1701 in
  let stable = ref 0 and checked = ref 0 and disconnected = ref 0 in
  List.iter
    (fun model ->
      for _ = 1 to 3 do
        let n = 5 + Prng.int r 8 in
        let alpha = 0.5 +. Prng.float r 4.0 in
        let host = Instances.random_host r model ~n ~alpha in
        let start = Instances.random_profile r host in
        List.iter
          (fun s ->
            if not (Float.is_finite (Gncg.Cost.social_cost host s)) then incr disconnected;
            let label = Printf.sprintf "%s n=%d" (Instances.model_name model) n in
            stable := !stable + agree_with_reference label host s;
            checked := !checked + 2)
          ([ start; thinned r start; Instances.empty_profile host ]
          @ converged host start Gncg.Dynamics.Greedy_response
          @ converged host start Gncg.Dynamics.Add_only)
      done)
    Instances.default_models;
  check_true "some verdicts stable" (!stable > 0);
  check_true "some verdicts unstable" (!stable < !checked);
  check_true "some profiles disconnected" (!disconnected > 0)

(* Sells the first owned edge: an unstable neighbour of the profile. *)
let perturbed s =
  match Strategy.owned_edges s with (u, v) :: _ -> Strategy.sell s u v | [] -> s

let test_spec_constructions () =
  let cases =
    [
      ( "Thm 8 (alpha=1)",
        C.Thm8_onetwo.host Alpha_one ~alpha:1.0 ~nb_centers:3 ~nb_leaves:3,
        C.Thm8_onetwo.ne_profile Alpha_one ~nb_centers:3 ~nb_leaves:3 );
      ( "Thm 8 (alpha=0.75)",
        C.Thm8_onetwo.host Alpha_mid ~alpha:0.75 ~nb_centers:3 ~nb_leaves:2,
        C.Thm8_onetwo.ne_profile Alpha_mid ~nb_centers:3 ~nb_leaves:2 );
      ( "Thm 15 tree star",
        C.Thm15_tree_star.host ~alpha:3.0 ~n:9,
        C.Thm15_tree_star.ne_profile ~alpha:3.0 ~n:9 );
      ( "Lemma 8 path",
        C.Lemma8_path.host ~alpha:2.0 ~n:8,
        C.Lemma8_path.ne_profile ~alpha:2.0 ~n:8 );
      ( "Thm 19 cross",
        C.Thm19_cross.host ~alpha:2.0 ~d:2,
        C.Thm19_cross.ne_profile ~alpha:2.0 ~d:2 );
    ]
    @
    let alpha = 2.0 in
    match C.Thm20_cycle.ne_profile ~alpha with
    | Some s -> [ ("Thm 20 cycle", C.Thm20_cycle.host ~alpha, s) ]
    | None -> Alcotest.fail "Thm 20 has an NE profile at alpha=2"
  in
  List.iter
    (fun (label, host, s) ->
      Alcotest.(check int) (label ^ ": the NE is AE and GE") 2 (agree_with_reference label host s);
      ignore (agree_with_reference (label ^ ", one edge sold") host (perturbed s));
      ignore
        (agree_with_reference (label ^ ", random profile") host
           (Instances.random_profile (rng (Host.n host)) host)))
    cases

(* Hosts on which the Auto state picks an implicit oracle: the network is
   the host's tree, or complete over point-set geometry. *)
let test_spec_oracle_backends () =
  let r = rng 1703 in
  let complete n =
    Strategy.of_lists n (List.init n (fun u -> (u, List.init (n - u - 1) (fun k -> u + k + 1))))
  in
  let host_tree host =
    match Host.geometry host with
    | Some (Gncg_metric.Geometry.Tree tr) ->
      Strategy.of_graph_arbitrary_owners (Gncg_metric.Tree_metric.graph tr)
    | _ -> Alcotest.fail "tree model hosts carry their tree"
  in
  List.iter
    (fun (model, profile_of, backend) ->
      for _ = 1 to 3 do
        let n = 5 + Prng.int r 8 in
        let alpha = 0.5 +. Prng.float r 4.0 in
        let host = Instances.random_host r model ~n ~alpha in
        let s = profile_of host in
        Alcotest.(check string) "Auto picks the oracle" backend
          (Gncg.Net_state.backend_id (Gncg.Net_state.create ~backend:Auto host s));
        let label = Printf.sprintf "%s oracle n=%d" backend n in
        ignore (agree_with_reference label host s);
        ignore (agree_with_reference (label ^ ", one edge sold") host (perturbed s))
      done)
    [
      (Instances.Tree { wmin = 1.0; wmax = 10.0 }, host_tree, "tree");
      ( Instances.Euclid { norm = Gncg_metric.Euclidean.L2; d = 2; box = 10.0 },
        (fun host -> complete (Host.n host)),
        "rd" );
    ]

let test_spec_tiny () =
  List.iter
    (fun n ->
      let host = unit_host ~alpha:2.0 n in
      let profiles =
        Strategy.empty n
        ::
        (if n = 2 then
           [ Strategy.of_lists 2 [ (0, [ 1 ]) ]; Strategy.of_lists 2 [ (0, [ 1 ]); (1, [ 0 ]) ] ]
         else [])
      in
      List.iter (fun s -> ignore (agree_with_reference (Printf.sprintf "n=%d" n) host s)) profiles;
      (* The model generators need at least one agent. *)
      if n > 0 then
        List.iter
          (fun model ->
            let host = Instances.random_host (rng n) model ~n ~alpha:1.0 in
            let label = Printf.sprintf "%s n=%d" (Instances.model_name model) n in
            ignore (agree_with_reference label host (Instances.empty_profile host));
            ignore (agree_with_reference label host (Instances.random_profile (rng n) host)))
          Instances.default_models)
    [ 0; 1; 2 ]

(* At alpha = 1, buying or swapping to the 1 - 1e-12 edge gains about
   1e-12, below Flt.eps: the spec calls that no improvement, and so must
   the scans (the engine tolerance, not float noise, decides near ties). *)
let test_spec_near_tie () =
  let m = Metric.make 3 (fun u v -> if u + v = 3 then 1.0 -. 1e-12 else 1.0) in
  let host = Host.make ~alpha:1.0 m in
  let s = Strategy.of_lists 3 [ (1, [ 0 ]); (2, [ 0 ]) ] in
  Alcotest.(check int) "stable within the tolerance" 2 (agree_with_reference "near tie" host s)

(* 1-inf hosts where only agent 1 buys 1-2, so agent 0 is cut off and
   every agent's distance cost is infinite.  A disconnected agent whose
   best move connects it must get the finite cost after that move, in
   the spec and in the scans alike (not inf - inf), and the grievances,
   all of infinite improvement, keep agent order.  Expected costs at
   alpha = 1: agent 0 buys 0-1 and pays 1 + (1 + 2); agent 1 buys 1-0 and
   pays 2 + (1 + 1); agent 2, where 2-0 is allowed, buys it and pays
   1 + (1 + 1). *)
let test_spec_disconnected_one_inf () =
  let s = Strategy.of_lists 3 [ (1, [ 2 ]) ] in
  List.iter
    (fun (label, allowed, expected) ->
      let host = Host.make ~alpha:1.0 (Gncg_metric.One_inf.of_allowed_edges 3 allowed) in
      ignore (agree_with_reference label host s);
      List.iter
        (fun kind ->
          let label = label ^ " " ^ kind_name kind in
          (match Eq.certify kind host s with
          | Ok () -> Alcotest.failf "%s: the profile is not stable" label
          | Error gs ->
            Alcotest.(check (list (pair int (float 1e-9))))
              (label ^ ": agents and best costs") expected
              (List.map (fun (g : Eq.grievance) -> (g.Eq.agent, g.Eq.best_cost)) gs);
            List.iter
              (fun (g : Eq.grievance) ->
                check_false (label ^ ": no NaN in the report")
                  (contains (Format.asprintf "%a" Eq.pp_grievance g) "nan"))
              gs);
          List.iter
            (fun (u, cost) ->
              check_float (Printf.sprintf "%s: spec best cost of %d" label u) cost
                (snd (reference_costs kind host s u)))
            expected)
        [ Eq.AE; Eq.GE ])
    [
      ("path 0-1-2", [ (0, 1); (1, 2) ], [ (0, 4.0); (1, 4.0) ]);
      ("triangle", [ (0, 1); (1, 2); (0, 2) ], [ (0, 4.0); (1, 4.0); (2, 3.0) ]);
    ]

(* The scans build their state with the Auto backend, so a process-wide
   tree/rd default (the CLI's --dist-backend) neither raises on a
   non-tree, non-complete network nor changes a verdict. *)
let test_scan_ignores_default_backend () =
  let module D = Gncg_graph.Distances in
  let host = C.Thm8_onetwo.host Alpha_one ~alpha:1.0 ~nb_centers:3 ~nb_leaves:3 in
  let ne = C.Thm8_onetwo.ne_profile Alpha_one ~nb_centers:3 ~nb_leaves:3 in
  let saved = D.default_spec () in
  Fun.protect
    ~finally:(fun () -> D.set_default_spec saved)
    (fun () ->
      List.iter
        (fun spec ->
          D.set_default_spec spec;
          let label = "Thm 8 under default " ^ D.spec_to_string spec in
          Alcotest.(check int) (label ^ ": AE and GE") 2 (agree_with_reference label host ne);
          ignore (agree_with_reference (label ^ ", one edge sold") host (perturbed ne)))
        [ D.Tree; D.Rd ])

let suites =
  [
    ( "equilibrium",
      [
        case "NE => GE => AE" test_hierarchy_ne_ge_ae;
        case "AE but not GE" test_ae_but_not_ge;
        case "GE but not NE exists" test_ge_but_not_ne;
        case "empty profile stability" test_empty_profile_stability;
        case "unhappy agents" test_unhappy_agents;
        case "Thm 10: star NE for alpha>=3" test_star_ne_alpha_ge_3;
        case "star unstable for small alpha" test_star_not_ne_small_alpha;
        case "Lemma 3: 1-edges improving" test_lemma3_one_edges_improving;
        case "approx factor 1 at NE" test_approx_factor_at_equilibrium;
        case "approx factor detects gap" test_approx_factor_detects_gap;
        case "Thm 2: AE is (a+1)-GE" test_thm2_ae_is_alpha_plus_one_ge;
        case "Cor 2: AE is 3(a+1)-NE" test_cor2_ae_is_3alpha1_ne;
        case "Thm 3: GE is 3-NE" test_thm3_ge_is_3ne;
        case "NE oracle consistency" test_oracle_consistency;
        case "certify evidence" test_certify;
      ] );
    ( "equilibrium.spec",
      [
        case "random hosts = Reference" test_spec_random_hosts;
        case "paper constructions = Reference" test_spec_constructions;
        case "tree/rd oracle states = Reference" test_spec_oracle_backends;
        case "n = 0, 1, 2 = Reference" test_spec_tiny;
        case "near ties = Reference" test_spec_near_tie;
        case "disconnected 1-inf = Reference, finite" test_spec_disconnected_one_inf;
        case "default tree/rd spec ignored" test_scan_ignores_default_backend;
      ] );
  ]
