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

(* The unpruned facility-location local search and branch-and-bound: the
   spec the swap-bound-pruned [Facility_location.improve_step],
   [local_search] and [solve_exact] are differential-tested against.
   Every open/closed pair's swap is priced at O(clients), every step
   recomputes the current cost, and every DFS node copies its row. *)
module Reference_fl = struct
  module Flt = Gncg_util.Flt
  open Gncg.Facility_location

  (* Per-client (best, second-best) open service costs: lets every single
     open/close/swap move be evaluated in O(clients). *)
  type assignment = { best : float array; best_f : int array; second : float array }

  let compute_assignment inst open_set =
    let nf = num_facilities inst and nc = num_clients inst in
    let best = Array.make nc Float.infinity in
    let best_f = Array.make nc (-1) in
    let second = Array.make nc Float.infinity in
    for f = 0 to nf - 1 do
      if open_set.(f) then
        for c = 0 to nc - 1 do
          let d = inst.service.(f).(c) in
          if d < best.(c) then begin
            second.(c) <- best.(c);
            best.(c) <- d;
            best_f.(c) <- f
          end
          else if d < second.(c) then second.(c) <- d
        done
    done;
    { best; best_f; second }

  (* [a -. b] that treats two infinities of the same sign as equal: service
     costs may be infinite and inf -. inf would poison deltas with NaN. *)
  let diff a b = if a = b then 0.0 else a -. b

  let open_gain inst asg f =
    (* Cost delta of opening facility [f] (assumed closed): opening cost
       minus the per-client improvements. *)
    if not (Float.is_finite inst.open_cost.(f)) then Float.infinity
    else begin
      let nc = num_clients inst in
      let delta = ref inst.open_cost.(f) in
      for c = 0 to nc - 1 do
        let d = inst.service.(f).(c) in
        if d < asg.best.(c) then delta := !delta +. diff d asg.best.(c)
      done;
      !delta
    end

  let close_gain inst asg f =
    (* Cost delta of closing facility [f] (assumed open): clients served by
       [f] fall back to their second-best facility. *)
    let nc = num_clients inst in
    let delta = ref (-.inst.open_cost.(f)) in
    for c = 0 to nc - 1 do
      if asg.best_f.(c) = f then delta := !delta +. diff asg.second.(c) asg.best.(c)
    done;
    !delta

  let swap_gain inst asg f_out f_in =
    (* Close [f_out], open [f_in]: each client picks the best among
       (new facility, previous best if not f_out, previous second). *)
    if not (Float.is_finite inst.open_cost.(f_in)) then Float.infinity
    else begin
      let nc = num_clients inst in
      let delta = ref (inst.open_cost.(f_in) -. inst.open_cost.(f_out)) in
      for c = 0 to nc - 1 do
        let d_new = inst.service.(f_in).(c) in
        let d_before = asg.best.(c) in
        let d_after =
          if asg.best_f.(c) = f_out then Float.min d_new asg.second.(c)
          else Float.min d_new d_before
        in
        delta := !delta +. diff d_after d_before
      done;
      !delta
    end

  let improve_step inst open_set =
    let nf = num_facilities inst in
    let asg = compute_assignment inst open_set in
    let current = cost inst open_set in
    let tol = Flt.eps *. Float.max 1.0 (Float.abs (if Float.is_finite current then current else 1.0)) in
    let best_delta = ref 0.0 in
    let best_move = ref None in
    let consider delta mv = if delta < !best_delta -. tol then begin best_delta := delta; best_move := Some mv end in
    for f = 0 to nf - 1 do
      if not open_set.(f) then consider (open_gain inst asg f) (`Open f)
      else if not inst.forced_open.(f) then consider (close_gain inst asg f) (`Close f)
    done;
    for f_out = 0 to nf - 1 do
      if open_set.(f_out) && not inst.forced_open.(f_out) then
        for f_in = 0 to nf - 1 do
          if not open_set.(f_in) then consider (swap_gain inst asg f_out f_in) (`Swap (f_out, f_in))
        done
    done;
    match !best_move with
    | None -> None
    | Some mv ->
      let next = Array.copy open_set in
      (match mv with
      | `Open f -> next.(f) <- true
      | `Close f -> next.(f) <- false
      | `Swap (f_out, f_in) ->
        next.(f_out) <- false;
        next.(f_in) <- true);
      Some (next, cost inst next)

  let local_search inst =
    let nf = num_facilities inst in
    (* Start from everything affordable open (forced facilities included even
       when unaffordable, so infeasibility surfaces as an infinite cost). *)
    let open_set =
      Array.init nf (fun f -> Float.is_finite inst.open_cost.(f) || inst.forced_open.(f))
    in
    let rec loop open_set c =
      match improve_step inst open_set with
      | Some (next, c') when c' < c -. Flt.eps -> loop next c'
      | _ -> (open_set, c)
    in
    loop open_set (cost inst open_set)

  let solve_exact inst =
    let nf = num_facilities inst and nc = num_clients inst in
    if nf = 0 then ([||], if nc = 0 then 0.0 else Float.infinity)
    else begin
      (* Suffix minima of service cost per client over facilities >= i:
         the admissible-heuristic part of the branch-and-bound lower bound. *)
      let suffix = Array.make_matrix (nf + 1) nc Float.infinity in
      for f = nf - 1 downto 0 do
        for c = 0 to nc - 1 do
          suffix.(f).(c) <- Float.min inst.service.(f).(c) suffix.(f + 1).(c)
        done
      done;
      let incumbent_set, incumbent_cost = local_search inst in
      let best_set = ref (Array.copy incumbent_set) in
      let best_cost = ref incumbent_cost in
      let open_set = Array.make nf false in
      let best_served = Array.make nc Float.infinity in
      (* DFS over facility indices; [opened] is the running opening cost and
         [best_served] the per-client best over currently-opened ones. *)
      let rec dfs f opened =
        if f = nf then begin
          let total = ref opened in
          for c = 0 to nc - 1 do
            total := !total +. best_served.(c)
          done;
          if !total < !best_cost -. Flt.eps then begin
            best_cost := !total;
            best_set := Array.copy open_set
          end
        end
        else begin
          let bound = ref opened in
          for c = 0 to nc - 1 do
            bound := !bound +. Float.min best_served.(c) suffix.(f).(c)
          done;
          if !bound < !best_cost -. Flt.eps then begin
            (* Branch 1: open facility f (unless its cost already dooms us). *)
            if inst.open_cost.(f) < Float.infinity then begin
              let saved = Array.copy best_served in
              open_set.(f) <- true;
              for c = 0 to nc - 1 do
                if inst.service.(f).(c) < best_served.(c) then
                  best_served.(c) <- inst.service.(f).(c)
              done;
              dfs (f + 1) (opened +. inst.open_cost.(f));
              open_set.(f) <- false;
              Array.blit saved 0 best_served 0 nc
            end;
            (* Branch 2: keep f closed (forbidden for forced facilities). *)
            if not inst.forced_open.(f) then dfs (f + 1) opened
          end
        end
      in
      dfs 0 0.0;
      (!best_set, !best_cost)
    end
end
