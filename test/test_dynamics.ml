open Helpers
module Prng = Gncg_util.Prng
module Dyn = Gncg.Dynamics
module Eq = Gncg.Equilibrium
module Strategy = Gncg.Strategy
module Metric = Gncg_obs.Metric
module D = Gncg_graph.Distances

let small_metric_host r ~n ~alpha =
  Gncg.Host.make ~alpha (Gncg_metric.Random_host.uniform_metric r ~n ~lo:1.0 ~hi:5.0)

let test_converged_is_equilibrium () =
  let r = rng 400 in
  let checked = ref 0 in
  for _ = 1 to 10 do
    let host = small_metric_host r ~n:6 ~alpha:(0.5 +. Prng.float r 2.0) in
    let start = Gncg_workload.Instances.random_profile r host in
    (match
       Dyn.run (Dyn.Config.make ~max_steps:4000 Dyn.Greedy_response Dyn.Round_robin) host start
     with
    | Dyn.Converged { profile; _ } ->
      incr checked;
      check_true "converged => GE" (Eq.is_ge host profile)
    | _ -> ());
    match
      Dyn.run (Dyn.Config.make ~max_steps:600 Dyn.Best_response Dyn.Round_robin) host start
    with
    | Dyn.Converged { profile; _ } ->
      incr checked;
      check_true "converged => NE" (Eq.is_ne host profile)
    | _ -> ()
  done;
  check_true "at least some runs converged" (!checked > 0)

let test_add_only_always_converges () =
  let r = rng 401 in
  for _ = 1 to 10 do
    let host = small_metric_host r ~n:7 ~alpha:1.0 in
    (* Start connected: from the empty profile a single purchase cannot
       rescue an infinite cost, so add-only dynamics idle there. *)
    let start = Gncg_workload.Instances.random_profile r host in
    match
      Dyn.run (Dyn.Config.make ~max_steps:5000 Dyn.Add_only Dyn.Round_robin) host start
    with
    | Dyn.Converged { profile; _ } ->
      check_true "result is AE" (Eq.is_ae host profile);
      check_true "result connected" (Gncg.Network.is_connected host profile)
    | _ -> Alcotest.fail "add-only dynamics cannot cycle (edge set grows)"
  done;
  (* The empty-start plateau itself: dynamics converge immediately. *)
  let host = small_metric_host r ~n:6 ~alpha:1.0 in
  match
    Dyn.run (Dyn.Config.make ~max_steps:100 Dyn.Add_only Dyn.Round_robin) host (Strategy.empty 6)
  with
  | Dyn.Converged { profile; steps; _ } ->
    check_true "no moves from empty" (steps = []);
    check_true "still empty" (Strategy.equal profile (Strategy.empty 6))
  | _ -> Alcotest.fail "empty start must converge instantly"

let test_steps_strictly_improve () =
  let r = rng 402 in
  let host = small_metric_host r ~n:6 ~alpha:1.5 in
  let start = Gncg_workload.Instances.random_profile r host in
  match Dyn.run (Dyn.Config.make ~max_steps:2000 Dyn.Greedy_response Dyn.Round_robin) host start with
  | Dyn.Converged { steps; _ } | Dyn.Cycle { steps; _ } | Dyn.Out_of_steps { steps; _ } ->
    List.iter
      (fun (st : Dyn.step) ->
        check_true "strict improvement" (st.after_cost < st.before_cost))
      steps

let test_deviation_none_at_ne () =
  let host = Gncg_constructions.Thm15_tree_star.host ~alpha:2.0 ~n:5 in
  let ne = Gncg_constructions.Thm15_tree_star.ne_profile ~alpha:2.0 ~n:5 in
  for u = 0 to 4 do
    check_true "no deviation at NE" (Dyn.deviation Dyn.Best_response host ne u = None)
  done

let test_out_of_steps () =
  let r = rng 403 in
  let host = small_metric_host r ~n:6 ~alpha:1.0 in
  let start = Strategy.empty 6 in
  match Dyn.run (Dyn.Config.make ~max_steps:1 Dyn.Add_only Dyn.Round_robin) host start with
  | Dyn.Out_of_steps _ -> ()
  | Dyn.Converged _ -> Alcotest.fail "cannot converge in one step from empty"
  | Dyn.Cycle _ -> Alcotest.fail "cannot cycle in one step"

let test_random_scheduler_runs () =
  let r = rng 404 in
  let host = small_metric_host r ~n:5 ~alpha:1.0 in
  let start = Gncg_workload.Instances.random_profile r host in
  let scheduler = Dyn.Random_order (Prng.create 99) in
  match Dyn.run (Dyn.Config.make ~max_steps:3000 Dyn.Greedy_response scheduler) host start with
  | Dyn.Converged { profile; _ } -> check_true "GE under random order" (Eq.is_ge host profile)
  | Dyn.Cycle { profiles; _ } ->
    check_true "cycle is verified" (Gncg_constructions.Brcycle.verify_cycle host profiles)
  | Dyn.Out_of_steps _ -> ()

let test_cycle_certificates_verified () =
  (* Hunt for improving-move cycles on small hosts; every reported cycle
     must pass independent verification.  (Existence is exercised again in
     the FIP experiment E10.) *)
  let r = rng 405 in
  let found = ref 0 in
  for _ = 1 to 30 do
    let n = 4 + Prng.int r 3 in
    let model = List.nth Gncg_workload.Instances.default_models (Prng.int r 5) in
    let host = Gncg_workload.Instances.random_host r model ~n ~alpha:(0.5 +. Prng.float r 3.0) in
    match Gncg_constructions.Brcycle.search_host ~tries:3 ~max_steps:300 r host with
    | Some f ->
      incr found;
      check_true "certificate verifies" (Gncg_constructions.Brcycle.verify_cycle f.host f.cycle)
    | None -> ()
  done;
  (* Not finding any cycle is possible but unexpected; record it loudly. *)
  if !found = 0 then Printf.printf "  note: no improving cycles found in this search budget\n"

let random_game seed ~n =
  let r = Prng.create seed in
  let alpha = 0.5 +. Prng.float r 3.0 in
  let model = List.nth Gncg_workload.Instances.default_models (Prng.int r 6) in
  let host = Gncg_workload.Instances.random_host r model ~n ~alpha in
  let s = Gncg_workload.Instances.random_profile r host in
  (host, s)

let steps_equal (a : Dyn.step list) (b : Dyn.step list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Dyn.step) (y : Dyn.step) ->
         x.mover = y.mover
         && Float.equal x.before_cost y.before_cost
         && Float.equal x.after_cost y.after_cost)
       a b

let outcomes_identical a b =
  match (a, b) with
  | ( Dyn.Converged { profile = p1; rounds = r1; steps = s1 },
      Dyn.Converged { profile = p2; rounds = r2; steps = s2 } ) ->
    Strategy.equal p1 p2 && r1 = r2 && steps_equal s1 s2
  | Dyn.Cycle { profiles = ps1; steps = s1 }, Dyn.Cycle { profiles = ps2; steps = s2 } ->
    List.length ps1 = List.length ps2
    && List.for_all2 Strategy.equal ps1 ps2
    && steps_equal s1 s2
  | ( Dyn.Out_of_steps { profile = p1; steps = s1 },
      Dyn.Out_of_steps { profile = p2; steps = s2 } ) ->
    Strategy.equal p1 p2 && steps_equal s1 s2
  | _ -> false

let test_config_defaults () =
  let cfg = Dyn.Config.make Dyn.Greedy_response Dyn.Round_robin in
  Alcotest.(check int) "default max_steps" 10_000 cfg.Dyn.Config.max_steps;
  check_true "default evaluator" (cfg.Dyn.Config.evaluator = `Reference);
  check_true "rule kept" (cfg.Dyn.Config.rule = Dyn.Greedy_response);
  check_true "scheduler kept" (cfg.Dyn.Config.scheduler = Dyn.Round_robin)

let test_deviation_degradation_counter () =
  let host, s = random_game 777 ~n:6 in
  let c = Metric.Counter.make "dynamics.evaluator_degradations" in
  let was_enabled = Metric.enabled () in
  Metric.set_enabled true;
  let v0 = Metric.Counter.value c in
  let inc = Dyn.deviation ~evaluator:`Incremental Dyn.Greedy_response host s 0 in
  let after_incremental = Metric.Counter.value c in
  let st = Dyn.deviation ~evaluator:`Stateless Dyn.Greedy_response host s 0 in
  let fast = Dyn.deviation ~evaluator:`Fast Dyn.Greedy_response host s 0 in
  let after_explicit = Metric.Counter.value c in
  Metric.set_enabled was_enabled;
  Alcotest.(check int) "`Incremental degradation counted" (v0 + 1) after_incremental;
  Alcotest.(check int) "`Stateless / `Fast are not degradations" after_incremental
    after_explicit;
  check_true "degraded result = explicit stateless result"
    (match (inc, st, fast) with
    | None, None, None -> true
    | Some (s1, g1), Some (s2, g2), Some (s3, g3) ->
      Strategy.equal s1 s2 && Strategy.equal s2 s3 && Float.equal g1 g2
      && Float.equal g2 g3
    | _ -> false)

let test_stateless_evaluator_runs () =
  let host, start = random_game 991 ~n:7 in
  let go evaluator =
    Dyn.run
      (Dyn.Config.make ~max_steps:3000 ~evaluator Dyn.Greedy_response Dyn.Round_robin)
      host start
  in
  check_true "`Stateless ≡ `Fast end to end"
    (outcomes_identical (go `Stateless) (go `Fast));
  check_true "evaluator strings roundtrip"
    (List.for_all
       (fun e -> Gncg.Evaluator.of_string (Gncg.Evaluator.to_string e) = Ok e)
       Gncg.Evaluator.all)

(* `Incremental greedy dynamics under every distance backend land on the
   outcome of the dense store, byte for byte.  The read-only oracles
   (tree/rd) reach Net_state through [require_mutable], which must fall
   back to dense. *)
let prop_backends_agree =
  QCheck.Test.make ~count:40 ~name:"incremental dynamics: backends agree"
    QCheck.(pair small_nat (int_range 0 1))
    (fun (seed, backend_idx) ->
      let spec = List.nth [ D.Tree; D.Rd ] backend_idx in
      let host, start = random_game (seed + 37) ~n:8 in
      (* Fresh scheduler rng per run: both sides draw the same stream. *)
      let go spec =
        let scheduler =
          if seed mod 2 = 0 then Dyn.Round_robin
          else Dyn.Random_order (Prng.create (7919 * (seed + 37)))
        in
        let saved = D.default_spec () in
        D.set_default_spec spec;
        Fun.protect
          ~finally:(fun () -> D.set_default_spec saved)
          (fun () ->
            Dyn.run
              (Dyn.Config.make ~max_steps:3000 ~evaluator:`Incremental
                 Dyn.Greedy_response scheduler)
              host start)
      in
      outcomes_identical (go D.Dense) (go spec))

(* Pinned outcomes: fixed seeds over every rule, evaluator and scheduler
   family, each digested (outcome kind, step count, canonical keys of its
   profiles) and compared with a recorded digest.  A changed digest means
   the dynamics reached a different outcome, or found a cycle at a
   different step. *)
let outcome_digest o =
  let kind, profiles, steps =
    match o with
    | Dyn.Converged { profile; steps; _ } -> ("converged", [ profile ], steps)
    | Dyn.Cycle { profiles; steps } -> ("cycle", profiles, steps)
    | Dyn.Out_of_steps { profile; steps } -> ("out_of_steps", [ profile ], steps)
  in
  String.concat "|"
    (kind :: string_of_int (List.length steps) :: List.map Strategy.canonical_key profiles)
  |> Digest.string |> Digest.to_hex

let is_cycle = function Dyn.Cycle _ -> true | Dyn.Converged _ | Dyn.Out_of_steps _ -> false

let pinned_incremental rule model seed =
  let r = Prng.create seed in
  let host = Gncg_workload.Instances.random_host r model ~n:40 ~alpha:1.5 in
  let start = Gncg_workload.Instances.random_profile r host in
  Dyn.run (Dyn.Config.make ~max_steps:20_000 ~evaluator:`Incremental rule Dyn.Round_robin) host start

let pinned_small ?evaluator rule scheduler ~n seed =
  let r = Prng.create seed in
  let host = small_metric_host r ~n ~alpha:(0.5 +. Prng.float r 2.0) in
  let start = Gncg_workload.Instances.random_profile r host in
  Dyn.run (Dyn.Config.make ~max_steps:5000 ?evaluator rule scheduler) host start

(* The Fig. 8 cycle hunt of [Brcycle.search_host]: a random start and a
   random activation order split off one seeded stream.  Seeds 37 and
   143 are the first to cycle under their rule. *)
let pinned_fig8 ?evaluator rule seed =
  let host = Gncg_constructions.Brcycle.fig8_host ~alpha:1.0 in
  let r = Prng.create seed in
  let start = Gncg_constructions.Brcycle.random_profile r host in
  let scheduler = Dyn.Random_order (Prng.split r) in
  (host, Dyn.run (Dyn.Config.make ~max_steps:1500 ?evaluator rule scheduler) host start)

let test_pinned_outcomes () =
  let general = Gncg_workload.Instances.General { lo = 1.0; hi = 10.0 } in
  let one_inf = Gncg_workload.Instances.One_inf { p = 0.5 } in
  let cases =
    [
      ("greedy incremental n=40", "80171c10727f86ccfe50bd8a138a2f83",
        fun () -> pinned_incremental Dyn.Greedy_response general 11);
      ("greedy incremental n=40 (1-inf)", "d3313f7d6c95868c9cd5e9cb25aca9b4",
        fun () -> pinned_incremental Dyn.Greedy_response one_inf 12);
      ("add-only incremental n=40", "cb3ae691a347088441996aa32495ec91",
        fun () -> pinned_incremental Dyn.Add_only one_inf 13);
      ("add-only incremental n=40 (general)", "7379aa2958d324eefb5b69e72ab478db",
        fun () -> pinned_incremental Dyn.Add_only general 14);
      ("greedy reference n=10", "da872ceec5e75714423b23702b787ea0",
        fun () -> pinned_small ~evaluator:`Reference Dyn.Greedy_response Dyn.Round_robin ~n:10 15);
      ("best response n=6", "63fb3de661011232df61867ea67087d6",
        fun () -> pinned_small Dyn.Best_response Dyn.Round_robin ~n:6 16);
      ("random improving, random order n=6", "2ad9d33530e85b0a7f73ae4c63710d9b",
        fun () ->
          pinned_small (Dyn.Random_improving (Prng.create 17))
            (Dyn.Random_order (Prng.create 18)) ~n:6 19);
      ("fig8 greedy incremental cycle", "d45547f1895dcc9a22f25b7fd523b004",
        fun () -> snd (pinned_fig8 ~evaluator:`Incremental Dyn.Greedy_response 37));
      ("fig8 random improving cycle", "cc117e50125ab002cf4897cda1b48c17",
        fun () -> snd (pinned_fig8 (Dyn.Random_improving (Prng.create 143)) 143));
    ]
  in
  List.iter
    (fun (name, expected, run) ->
      Alcotest.(check string) ("pinned: " ^ name) expected (outcome_digest (run ())))
    cases

let test_pinned_cycles () =
  List.iter
    (fun (name, (host, outcome)) ->
      check_true (name ^ " cycles") (is_cycle outcome);
      match outcome with
      | Dyn.Cycle { profiles; _ } ->
        check_true (name ^ " certificate verifies")
          (Gncg_constructions.Brcycle.verify_cycle host profiles)
      | Dyn.Converged _ | Dyn.Out_of_steps _ -> ())
    [
      ("fig8 greedy incremental", pinned_fig8 ~evaluator:`Incremental Dyn.Greedy_response 37);
      ("fig8 greedy reference", pinned_fig8 ~evaluator:`Reference Dyn.Greedy_response 37);
      ("fig8 random improving", pinned_fig8 (Dyn.Random_improving (Prng.create 143)) 143);
    ]

(* Every reported cycle is exact: it closes on its first profile, visits
   no profile twice before that, and every transition is an improving
   move of one agent.  Half the cases start on a stored cycle witness,
   where random improving dynamics cycle often enough to be exercised. *)
let prop_cycles_exact =
  QCheck.Test.make ~count:200 ~name:"random improving dynamics: cycles are exact"
    QCheck.small_nat
    (fun seed ->
      let host, start =
        if seed mod 2 = 0 then random_game (seed + 101) ~n:(4 + (seed mod 3))
        else
          let host, cycle =
            if seed mod 4 = 1 then Gncg_constructions.Brcycle.fig5_like_instance ()
            else Gncg_constructions.Brcycle.fig8_cycle ()
          in
          (host, List.nth cycle (seed mod (List.length cycle)))
      in
      let rule = Dyn.Random_improving (Prng.create (3 * seed)) in
      let scheduler = Dyn.Random_order (Prng.create ((3 * seed) + 1)) in
      match Dyn.run (Dyn.Config.make ~max_steps:800 rule scheduler) host start with
      | Dyn.Cycle { profiles; steps } ->
        let interior = List.rev (List.tl (List.rev profiles)) in
        let rec distinct = function
          | [] -> true
          | p :: rest -> (not (List.exists (Strategy.equal p) rest)) && distinct rest
        in
        List.length profiles >= 3
        && Strategy.equal (List.hd profiles) (List.nth profiles (List.length profiles - 1))
        && distinct interior
        && List.length steps >= List.length interior
        && Gncg_constructions.Brcycle.verify_cycle host profiles
      | Dyn.Converged _ | Dyn.Out_of_steps _ -> true)

let suites =
  [
    ( "dynamics",
      [
        case "converged profiles are equilibria" test_converged_is_equilibrium;
        case "add-only always converges" test_add_only_always_converges;
        case "steps strictly improve" test_steps_strictly_improve;
        case "no deviation at NE" test_deviation_none_at_ne;
        case "out of steps" test_out_of_steps;
        case "random scheduler" test_random_scheduler_runs;
        slow_case "cycle certificates verify" test_cycle_certificates_verified;
        case "config defaults" test_config_defaults;
        case "deviation degradation counter" test_deviation_degradation_counter;
        case "stateless evaluator" test_stateless_evaluator_runs;
        QCheck_alcotest.to_alcotest prop_backends_agree;
        case "pinned outcomes" test_pinned_outcomes;
        case "pinned cycles" test_pinned_cycles;
        QCheck_alcotest.to_alcotest prop_cycles_exact;
      ] );
  ]
