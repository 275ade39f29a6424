open Helpers
module Fl = Gncg.Facility_location
module Prng = Gncg_util.Prng

let random_instance ?(forced = false) r nf nc =
  let open_cost = Array.init nf (fun _ -> Prng.float r 10.0) in
  let service = Array.init nf (fun _ -> Array.init nc (fun _ -> Prng.float r 10.0)) in
  let forced_open =
    Array.init nf (fun _ -> forced && Prng.coin r 0.3)
  in
  Array.iteri (fun f b -> if b then open_cost.(f) <- 0.0) forced_open;
  Fl.make ~forced_open ~open_cost ~service ()

let brute_force inst =
  let nf = Fl.num_facilities inst in
  let best = ref Float.infinity in
  let best_set = ref (Array.make nf false) in
  for mask = 0 to (1 lsl nf) - 1 do
    let set = Array.init nf (fun f -> mask land (1 lsl f) <> 0) in
    let c = Fl.cost inst set in
    if c < !best then begin
      best := c;
      best_set := set
    end
  done;
  (!best_set, !best)

let test_cost_definition () =
  let inst =
    Fl.make ~open_cost:[| 5.0; 1.0 |]
      ~service:[| [| 1.0; 4.0 |]; [| 3.0; 2.0 |] |]
      ()
  in
  check_float "both open" (5.0 +. 1.0 +. 1.0 +. 2.0) (Fl.cost inst [| true; true |]);
  check_float "first only" (5.0 +. 1.0 +. 4.0) (Fl.cost inst [| true; false |]);
  check_true "none open is infeasible" (Fl.cost inst [| false; false |] = Float.infinity)

let test_forced_open () =
  let inst =
    Fl.make
      ~forced_open:[| true; false |]
      ~open_cost:[| 0.0; 1.0 |]
      ~service:[| [| 1.0 |]; [| 0.5 |] |]
      ()
  in
  check_true "closing forced facility infeasible"
    (Fl.cost inst [| false; true |] = Float.infinity);
  let set, _ = Fl.solve_exact inst in
  check_true "exact keeps forced open" set.(0)

let test_exact_vs_brute_force () =
  let r = rng 100 in
  for trial = 1 to 20 do
    let nf = 2 + Prng.int r 7 and nc = 1 + Prng.int r 8 in
    let inst = random_instance r nf nc in
    let _, exact = Fl.solve_exact inst in
    let _, brute = brute_force inst in
    if not (approx ~tol:1e-9 exact brute) then
      Alcotest.failf "trial %d: exact=%g brute=%g" trial exact brute
  done

let test_exact_with_forced_vs_brute_force () =
  let r = rng 101 in
  for trial = 1 to 15 do
    let nf = 2 + Prng.int r 6 and nc = 1 + Prng.int r 6 in
    let inst = random_instance ~forced:true r nf nc in
    let _, exact = Fl.solve_exact inst in
    let _, brute = brute_force inst in
    if not (approx ~tol:1e-9 exact brute) then
      Alcotest.failf "trial %d: exact=%g brute=%g" trial exact brute
  done

let test_local_search_fixpoint () =
  let r = rng 102 in
  for _ = 1 to 10 do
    let inst = random_instance r 8 8 in
    let set, cost = Fl.local_search inst in
    check_float ~tol:1e-9 "reported cost is correct" (Fl.cost inst set) cost;
    check_true "no improving step left" (Fl.improve_step inst set = None)
  done

let test_local_search_3_approx_on_metric () =
  (* Arya et al.: the locality gap on metric instances is 3; verify the
     bound holds on random metric service costs (clients = points,
     facilities = points, metric distances). *)
  let r = rng 103 in
  for _ = 1 to 10 do
    let n = 7 in
    let pts = Gncg_metric.Euclidean.random_uniform r ~n:(2 * n) ~d:2 ~lo:0.0 ~hi:10.0 in
    let service =
      Array.init n (fun f ->
          Array.init n (fun c -> Gncg_metric.Euclidean.dist L2 pts.(f) pts.(n + c)))
    in
    let open_cost = Array.init n (fun _ -> Prng.float r 5.0) in
    let inst = Fl.make ~open_cost ~service () in
    let _, ls = Fl.local_search inst in
    let _, opt = Fl.solve_exact inst in
    check_true "local search within locality gap 3" (ls <= (3.0 *. opt) +. 1e-6)
  done

let test_infinite_costs_handled () =
  let inst =
    Fl.make
      ~open_cost:[| Float.infinity; 2.0 |]
      ~service:[| [| 1.0 |]; [| Float.infinity |] |]
      ()
  in
  let _, cost = Fl.solve_exact inst in
  check_true "best is infinite (unservable client)" (cost = Float.infinity);
  let _, ls_cost = Fl.local_search inst in
  check_true "local search does not NaN" (Float.is_nan ls_cost = false)

let test_empty_instance () =
  let inst = Fl.make ~open_cost:[||] ~service:[||] () in
  let set, cost = Fl.solve_exact inst in
  Alcotest.(check int) "no facilities" 0 (Array.length set);
  check_float "zero cost" 0.0 cost


(* Differential tests against [Helpers.Reference_fl], the unpruned local
   search and copying branch-and-bound.  Instances mix every awkward
   input: integer-valued costs (exact ties), zero and infinite opening
   costs, forced facilities, infinite service entries and clients no
   facility can serve. *)
let wild_instance r =
  let nf = Prng.int r 31 in
  let nc = if nf = 0 then 0 else Prng.int r 25 in
  let integer = Prng.bool r in
  let value () = if integer then float_of_int (Prng.int r 11) else Prng.float r 10.0 in
  let open_cost =
    Array.init nf (fun _ ->
        let x = Prng.float r 1.0 in
        if x < 0.15 then 0.0 else if x < 0.25 then Float.infinity else value ())
  in
  let unservable = Array.init nc (fun _ -> Prng.coin r 0.08) in
  let service =
    Array.init nf (fun _ ->
        Array.init nc (fun c ->
            if unservable.(c) || Prng.coin r 0.1 then Float.infinity else value ()))
  in
  let forced_open =
    Array.init nf (fun f ->
        let forced = Prng.coin r 0.15 in
        if forced && Prng.coin r 0.8 then open_cost.(f) <- 0.0;
        forced)
  in
  Fl.make ~forced_open ~open_cost ~service ()

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_solution (set_a, cost_a) (set_b, cost_b) = set_a = set_b && same_float cost_a cost_b

let show_solution (set, cost) =
  let opened = List.filter (fun f -> set.(f)) (List.init (Array.length set) Fun.id) in
  Printf.sprintf "{%s} %h" (String.concat "," (List.map string_of_int opened)) cost

let check_same label expected actual =
  if not (same_solution expected actual) then
    Alcotest.failf "%s: spec %s, got %s" label (show_solution expected) (show_solution actual)

let check_same_step label expected actual =
  match (expected, actual) with
  | None, None -> ()
  | Some e, Some a -> check_same label e a
  | Some e, None -> Alcotest.failf "%s: spec steps to %s, got no step" label (show_solution e)
  | None, Some a -> Alcotest.failf "%s: spec has no step, got %s" label (show_solution a)

let test_local_search_matches_spec () =
  let r = rng 104 in
  let steps = ref 0 in
  for trial = 1 to 300 do
    let inst = wild_instance r in
    let nf = Fl.num_facilities inst in
    let label = Printf.sprintf "trial %d (nf=%d nc=%d)" trial nf (Fl.num_clients inst) in
    check_same (label ^ " local_search") (Reference_fl.local_search inst) (Fl.local_search inst);
    (* Same move order: every step of the spec's trajectory, and a few
       arbitrary sets (forced facilities closed included). *)
    let rec walk set =
      let expected = Reference_fl.improve_step inst set in
      check_same_step (label ^ " improve_step") expected (Fl.improve_step inst set);
      incr steps;
      match expected with Some (next, _) -> walk next | None -> ()
    in
    walk (Array.init nf (fun f -> Float.is_finite inst.Fl.open_cost.(f) || inst.Fl.forced_open.(f)));
    for _ = 1 to 3 do
      let set = Array.init nf (fun _ -> Prng.bool r) in
      check_same_step (label ^ " improve_step (random set)") (Reference_fl.improve_step inst set)
        (Fl.improve_step inst set)
    done
  done;
  check_true "trajectories have steps" (!steps > 600)

let test_solve_exact_matches_spec () =
  let r = rng 105 in
  for trial = 1 to 150 do
    let inst = wild_instance r in
    check_same
      (Printf.sprintf "trial %d (nf=%d nc=%d) solve_exact" trial (Fl.num_facilities inst) (Fl.num_clients inst))
      (Reference_fl.solve_exact inst) (Fl.solve_exact inst)
  done

(* [swap_check]'s bound is the exact swap delta up to its slack whenever
   it is defined, and it is defined on finite instances with two or more
   open facilities. *)
let prop_swap_bound_within_slack =
  QCheck.Test.make ~count:200 ~name:"swap bound = swap gain within slack" QCheck.small_nat (fun seed ->
      let r = rng (7000 + seed) in
      let nf = 3 + Prng.int r 12 and nc = 1 + Prng.int r 16 in
      let integer = Prng.bool r in
      let value () = if integer then float_of_int (Prng.int r 11) else Prng.float r 10.0 in
      let inst =
        Fl.make
          ~open_cost:(Array.init nf (fun _ -> value ()))
          ~service:(Array.init nf (fun _ -> Array.init nc (fun _ -> value ())))
          ()
      in
      let set = Array.init nf (fun f -> f < 2 || (f < nf - 1 && Prng.bool r)) in
      let ok = ref true in
      for f_out = 0 to nf - 1 do
        for f_in = 0 to nf - 1 do
          if set.(f_out) && not set.(f_in) then
            match Fl.swap_check inst set ~f_out ~f_in with
            | exact, Some (bound, slack) -> if Float.abs (exact -. bound) > slack then ok := false
            | _, None -> ok := false
        done
      done;
      !ok)

let test_best_response_matches_spec () =
  let module I = Gncg_workload.Instances in
  let r = rng 106 in
  let converged_agents = ref 0 in
  List.iter
    (fun model ->
      for _ = 1 to 2 do
        let n = 6 + Prng.int r 9 in
        let alpha = 0.5 +. Prng.float r 4.0 in
        let host = I.random_host r model ~n ~alpha in
        let start = I.random_profile r host in
        let converged =
          match
            Gncg.Dynamics.run
              (Gncg.Dynamics.Config.make ~max_steps:3000 ~evaluator:`Incremental
                 Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
              host start
          with
          | Gncg.Dynamics.Converged { profile; _ } -> [ profile ]
          | _ -> []
        in
        List.iter
          (fun s ->
            for u = 0 to n - 1 do
              let inst, decode = Gncg.Best_response.umfl_instance host s u in
              let label = Printf.sprintf "%s n=%d agent %d" (I.model_name model) n u in
              let spec solve =
                let set, cost = solve inst in
                (decode set, cost)
              in
              let same name (set_e, cost_e) (set_a, cost_a) =
                if not (Gncg.Strategy.ISet.equal set_e set_a && same_float cost_e cost_a) then
                  Alcotest.failf "%s %s: spec cost %h, got %h" label name cost_e cost_a
              in
              same "exact" (spec Reference_fl.solve_exact) (Gncg.Best_response.exact host s u);
              same "local" (spec Reference_fl.local_search) (Gncg.Best_response.local host s u);
              if s != start then incr converged_agents
            done)
          (start :: converged)
      done)
    I.default_models;
  check_true "converged profiles compared" (!converged_agents > 0)

let suites =
  [
    ( "facility-location",
      [
        case "cost definition" test_cost_definition;
        case "forced-open facilities" test_forced_open;
        case "exact = brute force" test_exact_vs_brute_force;
        case "exact with forced = brute force" test_exact_with_forced_vs_brute_force;
        case "local search reaches fixpoint" test_local_search_fixpoint;
        case "local search within locality gap" test_local_search_3_approx_on_metric;
        case "infinite costs" test_infinite_costs_handled;
        case "empty instance" test_empty_instance;
        case "local search = unpruned spec" test_local_search_matches_spec;
        case "solve_exact = unpruned spec" test_solve_exact_matches_spec;
        case "best responses = spec on UMFL instances" test_best_response_matches_spec;
        QCheck_alcotest.to_alcotest prop_swap_bound_within_slack;
      ] );
  ]
