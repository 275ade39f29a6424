module Flt = Gncg_util.Flt

type instance = {
  open_cost : float array;
  service : float array array;
  forced_open : bool array;
}

let make ?forced_open ~open_cost ~service () =
  let nf = Array.length open_cost in
  if Array.length service <> nf then
    invalid_arg "Facility_location.make: service rows must match facilities";
  let nc = if nf = 0 then 0 else Array.length service.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> nc then invalid_arg "Facility_location.make: ragged service")
    service;
  let forced_open =
    match forced_open with
    | None -> Array.make nf false
    | Some f ->
      if Array.length f <> nf then invalid_arg "Facility_location.make: forced_open size";
      Array.copy f
  in
  { open_cost; service; forced_open }

let num_facilities inst = Array.length inst.open_cost

let num_clients inst =
  if num_facilities inst = 0 then 0 else Array.length inst.service.(0)

(* Per-client (best, second-best) open service costs: lets every single
   open/close/swap move be evaluated in O(clients). *)
type assignment = { best : float array; best_f : int array; second : float array }

let compute_assignment inst open_set =
  let nf = num_facilities inst and nc = num_clients inst in
  let best = Array.make nc Float.infinity in
  let best_f = Array.make nc (-1) in
  let second = Array.make nc Float.infinity in
  for f = 0 to nf - 1 do
    if open_set.(f) then begin
      let row = inst.service.(f) in
      for c = 0 to nc - 1 do
        let d = row.(c) in
        if d < best.(c) then begin
          second.(c) <- best.(c);
          best.(c) <- d;
          best_f.(c) <- f
        end
        else if d < second.(c) then second.(c) <- d
      done
    end
  done;
  { best; best_f; second }

(* [cost] from the assignment of the same set: opening costs in facility
   order, then each client's best service in client order. *)
let assignment_cost inst open_set asg =
  let nf = num_facilities inst in
  let ok_forced = ref true in
  for f = 0 to nf - 1 do
    if inst.forced_open.(f) && not open_set.(f) then ok_forced := false
  done;
  if not !ok_forced then Float.infinity
  else begin
    let total = ref 0.0 in
    for f = 0 to nf - 1 do
      if open_set.(f) then total := !total +. inst.open_cost.(f)
    done;
    for c = 0 to Array.length asg.best - 1 do
      total := !total +. asg.best.(c)
    done;
    !total
  end

let cost inst open_set =
  if Array.length open_set <> num_facilities inst then invalid_arg "Facility_location.cost: size";
  assignment_cost inst open_set (compute_assignment inst open_set)

(* [a -. b] that treats two infinities of the same sign as equal: service
   costs may be infinite and inf -. inf would poison deltas with NaN. *)
let diff a b = if a = b then 0.0 else a -. b

let open_gain inst asg f =
  (* Cost delta of opening facility [f] (assumed closed): opening cost
     minus the per-client improvements. *)
  if not (Float.is_finite inst.open_cost.(f)) then Float.infinity
  else begin
    let nc = num_clients inst in
    let row = inst.service.(f) and best = asg.best in
    let delta = ref inst.open_cost.(f) in
    for c = 0 to nc - 1 do
      let d = row.(c) in
      if d < best.(c) then delta := !delta +. diff d best.(c)
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

(* The swap bound (Resende–Werneck's "fast interchange"): in real
   arithmetic [swap_gain o i = open_gain i + close_gain o - extra o i],
   where [extra o i] sums, over the clients [c] served by [o],
   [max 0 (second c - max (best c) (service i c))] — the saving that
   opening [i] and closing [o] separately would each count for [c].

   [extra_term] is one client's summand; [diff] keeps it 0 when [second]
   and [max best s] are the same infinity. *)
let[@inline] extra_term asg c s =
  let second = asg.second.(c) in
  let m = if s > asg.best.(c) then s else asg.best.(c) in
  if second > m then diff second m else 0.0

(* The bound and the [slack] that covers its rounding against
   [swap_gain].  The summands of [open_gain] share one sign, as do those
   of [close_gain] and of [extra], and each summand of [swap_gain] is in
   magnitude at most an [open_gain] summand plus a [close_gain] one; so
   each of the four sums adds terms of total magnitude at most [2a], with
   [a = |og| + |cg| + extra + |oc_in| + |oc_out|].  Recursive summation
   of [k] terms errs by at most [(k - 1)·u] times that (u = 2^-53), each
   per-client subtraction by [u] times its term, and the two operations
   that combine the sums by [u] each: about [5(nc + 4)·u·a] in all, which
   [(nc + 4)·1e-12·a] exceeds 1,800-fold.  Only for finite inputs:
   [swap_gain]'s infinities have no linear form.  These run once per
   (open, closed) pair; inlined, their floats stay unboxed. *)
let[@inline] bound_ok ~og ~cg ~extra ~oc_in ~oc_out =
  Float.is_finite og && Float.is_finite cg && Float.is_finite extra && Float.is_finite oc_in
  && Float.is_finite oc_out

let[@inline] swap_bound ~og ~cg ~extra = og +. cg -. extra

let[@inline] swap_slack ~nc ~og ~cg ~extra ~oc_in ~oc_out =
  1e-12 *. float_of_int (nc + 4)
  *. (Float.abs og +. Float.abs cg +. extra +. Float.abs oc_in +. Float.abs oc_out)

(* Per-search buffers: [gain.(f)] is [open_gain f] for a closed [f] and
   [close_gain f] for an open free one; [extra.(i * nf + o)] is
   [extra o i] for closed [i] and open [o]. *)
type buffers = { gain : float array; extra : Float.Array.t }

let buffers nf = { gain = Array.make nf 0.0; extra = Float.Array.make (nf * nf) 0.0 }

(* The gains and the swap bounds of one step.  A single pass over the
   clients finishes every [close_gain], and one pass per closed [i] fills
   [extra _ i]: a client adds only to the entries of its own best
   facility (when that one may close), in client order, so each sum is
   the one [close_gain] or [swap_check] forms. *)
let fill_gains inst asg open_set bufs =
  let nf = num_facilities inst and nc = num_clients inst in
  let gain = bufs.gain and extra = bufs.extra in
  for f = 0 to nf - 1 do
    if not open_set.(f) then gain.(f) <- open_gain inst asg f
    else if not inst.forced_open.(f) then gain.(f) <- -.inst.open_cost.(f)
  done;
  for c = 0 to nc - 1 do
    let o = asg.best_f.(c) in
    if o >= 0 && not inst.forced_open.(o) then
      gain.(o) <- gain.(o) +. diff asg.second.(c) asg.best.(c)
  done;
  for i = 0 to nf - 1 do
    if not open_set.(i) then begin
      let row = inst.service.(i) and base = i * nf in
      Float.Array.fill extra base nf 0.0;
      for c = 0 to nc - 1 do
        let o = asg.best_f.(c) in
        if o >= 0 && not inst.forced_open.(o) then begin
          let k = base + o in
          Float.Array.set extra k (Float.Array.get extra k +. extra_term asg c row.(c))
        end
      done
    end
  done

(* One step from [open_set], whose assignment is [asg] and whose cost is
   [current] (it sets the tolerance only); the next set comes with its
   assignment and cost. *)
let improve_step_from bufs inst open_set asg current =
  let nf = num_facilities inst and nc = num_clients inst in
  let tol = Flt.eps *. Float.max 1.0 (Float.abs (if Float.is_finite current then current else 1.0)) in
  let best_delta = ref 0.0 in
  let best_move = ref None in
  let consider delta mv = if delta < !best_delta -. tol then begin best_delta := delta; best_move := Some mv end in
  fill_gains inst asg open_set bufs;
  let gain = bufs.gain in
  for f = 0 to nf - 1 do
    if not open_set.(f) then consider gain.(f) (`Open f)
    else if not inst.forced_open.(f) then consider gain.(f) (`Close f)
  done;
  (* A pair is priced exactly unless its bound, less the slack, already
     misses the running best: the pruned pairs are exactly those
     [consider] would reject, so the move chosen is unchanged. *)
  for f_out = 0 to nf - 1 do
    if open_set.(f_out) && not inst.forced_open.(f_out) then begin
      let cg = gain.(f_out) and oc_out = inst.open_cost.(f_out) in
      for f_in = 0 to nf - 1 do
        if not open_set.(f_in) then begin
          let og = gain.(f_in) and oc_in = inst.open_cost.(f_in) in
          let extra = Float.Array.get bufs.extra ((f_in * nf) + f_out) in
          if
            (not (bound_ok ~og ~cg ~extra ~oc_in ~oc_out))
            || swap_bound ~og ~cg ~extra -. swap_slack ~nc ~og ~cg ~extra ~oc_in ~oc_out
               < !best_delta -. tol
          then consider (swap_gain inst asg f_out f_in) (`Swap (f_out, f_in))
        end
      done
    end
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
    let asg' = compute_assignment inst next in
    Some (next, asg', assignment_cost inst next asg')

let improve_step inst open_set =
  let current = cost inst open_set in
  match
    improve_step_from (buffers (num_facilities inst)) inst open_set
      (compute_assignment inst open_set) current
  with
  | Some (next, _, c) -> Some (next, c)
  | None -> None

let swap_check inst open_set ~f_out ~f_in =
  let nf = num_facilities inst and nc = num_clients inst in
  if Array.length open_set <> nf then invalid_arg "Facility_location.swap_check: size";
  if f_out < 0 || f_out >= nf || f_in < 0 || f_in >= nf || (not open_set.(f_out)) || open_set.(f_in)
  then invalid_arg "Facility_location.swap_check: need an open f_out and a closed f_in";
  let asg = compute_assignment inst open_set in
  let og = open_gain inst asg f_in and cg = close_gain inst asg f_out in
  let extra = ref 0.0 in
  for c = 0 to nc - 1 do
    if asg.best_f.(c) = f_out then extra := !extra +. extra_term asg c inst.service.(f_in).(c)
  done;
  let extra = !extra and oc_in = inst.open_cost.(f_in) and oc_out = inst.open_cost.(f_out) in
  let exact = swap_gain inst asg f_out f_in in
  if bound_ok ~og ~cg ~extra ~oc_in ~oc_out then
    (exact, Some (swap_bound ~og ~cg ~extra, swap_slack ~nc ~og ~cg ~extra ~oc_in ~oc_out))
  else (exact, None)

let local_search inst =
  let nf = num_facilities inst in
  (* Start from everything affordable open (forced facilities included even
     when unaffordable, so infeasibility surfaces as an infinite cost). *)
  let open_set =
    Array.init nf (fun f -> Float.is_finite inst.open_cost.(f) || inst.forced_open.(f))
  in
  let bufs = buffers nf in
  let rec loop open_set asg c =
    match improve_step_from bufs inst open_set asg c with
    | Some (next, asg', c') when c' < c -. Flt.eps -> loop next asg' c'
    | _ -> (open_set, c)
  in
  let asg = compute_assignment inst open_set in
  loop open_set asg (assignment_cost inst open_set asg)

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
    (* [saved.(f)] holds [best_served] as it was before branch 1 at depth
       [f] opened facility [f]: one row per depth, allocated once. *)
    let saved = Array.make_matrix nf nc Float.infinity in
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
        let bound = ref opened and suffix_f = suffix.(f) in
        for c = 0 to nc - 1 do
          bound := !bound +. Float.min best_served.(c) suffix_f.(c)
        done;
        if !bound < !best_cost -. Flt.eps then begin
          (* Branch 1: open facility f (unless its cost already dooms us). *)
          if inst.open_cost.(f) < Float.infinity then begin
            let row = inst.service.(f) in
            Array.blit best_served 0 saved.(f) 0 nc;
            open_set.(f) <- true;
            for c = 0 to nc - 1 do
              if row.(c) < best_served.(c) then best_served.(c) <- row.(c)
            done;
            dfs (f + 1) (opened +. inst.open_cost.(f));
            open_set.(f) <- false;
            Array.blit saved.(f) 0 best_served 0 nc
          end;
          (* Branch 2: keep f closed (forbidden for forced facilities). *)
          if not inst.forced_open.(f) then dfs (f + 1) opened
        end
      end
    in
    dfs 0 0.0;
    (!best_set, !best_cost)
  end
