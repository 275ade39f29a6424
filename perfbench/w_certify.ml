(* certify: the `gncg check` path — stateless Equilibrium.is_ae and
   is_ge under Exec.default on converged n=60 profiles of all six
   default models, plus an NE certificate by exact best responses on a
   small host.  Read-only use of Fast_response and Equilibrium with no
   Net_state writes: a change that speeds converge's writes but taxes
   the scans shows here. *)

module H = Harness
module E = Gncg.Equilibrium
module I = Gncg_workload.Instances

let n = 60
let alpha = 2.0
let ne_n = 44
let ne_model = I.General { lo = 1.0; hi = 10.0 }

type profile = {
  label : string;
  host : Gncg.Host.t;
  profile : Gncg.Strategy.t;
  ge : bool;  (** Equilibrium.Tracker's verdicts, the reference *)
  ae : bool;
}

(* A greedy-dynamics stable state from the first derived seed whose run
   converges (greedy dynamics may cycle instead). *)
let converged rng model ~n ~alpha =
  let rec go tries =
    let host = I.random_host rng model ~n ~alpha in
    let start = I.random_profile rng host in
    match
      Gncg.Dynamics.run
        (Gncg.Dynamics.Config.make ~max_steps:20_000 ~evaluator:`Incremental
           Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
        host start
    with
    | Gncg.Dynamics.Converged { profile; _ } -> (host, profile)
    | _ when tries > 1 -> go (tries - 1)
    | _ -> failwith ("certify: no converged profile for " ^ I.model_name model)
  in
  go 10

let tracker kind host profile =
  E.Tracker.is_equilibrium
    (E.Tracker.create kind (Gncg.Net_state.create ~require_mutable:true host profile))

let setup seed =
  let rng = Gncg_util.Prng.create seed in
  let profiles =
    List.map
      (fun model ->
        let host, profile = converged rng model ~n ~alpha in
        {
          label = I.model_name model;
          host;
          profile;
          ge = tracker E.GE host profile;
          ae = tracker E.AE host profile;
        })
      I.default_models
  in
  let ne_host, ne_profile = converged rng ne_model ~n:ne_n ~alpha in
  (profiles, (ne_host, ne_profile))

type verdicts = { is_ae : bool; is_ge : bool; t_ae : float; t_ge : float }

let certify_profile ?(parent = 0) p =
  let span name f = Trace.with_span ~parent name (fun _ -> H.time f) in
  let is_ae, t_ae = span "equilibrium.is_ae" (fun () -> E.is_ae ~exec:Gncg_util.Exec.default p.host p.profile) in
  let is_ge, t_ge = span "equilibrium.is_ge" (fun () -> E.is_ge ~exec:Gncg_util.Exec.default p.host p.profile) in
  { is_ae; is_ge; t_ae; t_ge }

let certify_ne ?(parent = 0) (host, profile) =
  Trace.with_span ~parent "equilibrium.certify_ne" (fun _ ->
      H.time (fun () -> E.certify ~exec:Gncg_util.Exec.default E.NE host profile))

(* One pass: every profile's AE and GE check, then the NE certificate;
   each is one job. *)
let pass ?(parent = 0) (profiles, ne) =
  let per = List.map (fun p -> (p, H.time (fun () -> certify_profile ~parent p))) profiles in
  (per, certify_ne ~parent ne)

let ne_digest = function
  | Ok () -> "ne"
  | Error gs ->
    String.concat ";" (List.map (fun (g : E.grievance) -> string_of_int g.agent) gs)

(* Stateless verdicts must match the Tracker's; the NE certificate must
   not change between passes. *)
let verify tally =
  let ne_ref = ref None in
  fun (per, (ne, _)) ->
    List.iter
      (fun (p, (v, _)) ->
        H.check tally (v.is_ge = p.ge) (lazy (p.label ^ ": is_ge disagrees with Tracker"));
        H.check tally (v.is_ae = p.ae) (lazy (p.label ^ ": is_ae disagrees with Tracker")))
      per;
    let d = ne_digest ne in
    match !ne_ref with
    | None -> ne_ref := Some d
    | Some r -> H.check tally (r = d) (lazy "NE certificate changed between passes")

let job_times (per, (_, t_ne)) = t_ne :: List.map (fun (_, (_, t)) -> t) per

let run ~seed ~seconds ~trace tally =
  if not trace then begin
    let prepared, setups = H.repeated_setup ~reps:3 (fun () -> setup seed) in
    let check = verify tally in
    let runs, memory = H.passes ~seconds (fun () -> pass prepared) in
    List.iter (fun (r, _) -> check r) runs;
    H.batch_metrics ~setups ~memory ~walls:(List.map snd runs)
      ~jobs:(List.concat_map (fun (r, _) -> job_times r) runs)
  end
  else begin
    let ((profiles, (ne_host, ne_profile)) as prepared) = setup seed in
    let traced, gc, snap, overhead, _ =
      H.traced_passes ~check:(verify tally) ~root:"certify.pass" (fun parent ->
          pass ~parent prepared)
    in
    let jobs = List.length profiles + 1 in
    let per, (_, t_ne) = traced in
    let ms name xs = H.median_metric ~scale:1e3 name "ms" xs in
    let tracker_ms =
      List.map
        (fun p ->
          snd
            (Trace.with_span "equilibrium.tracker" (fun _ ->
                 H.time (fun () -> tracker E.GE p.host p.profile))))
        profiles
    in
    let br_ms =
      List.init ne_n (fun u ->
          snd
            (Trace.with_span "best_response.exact" (fun _ ->
                 H.time (fun () -> Gncg.Best_response.exact ne_host ne_profile u))))
    in
    let p0 = List.hd profiles in
    [
      overhead;
      ms "equilibrium.is_ae_ms" (List.map (fun (_, (v, _)) -> v.t_ae) per);
      ms "equilibrium.is_ge_ms" (List.map (fun (_, (v, _)) -> v.t_ge) per);
      ms "equilibrium.certify_ne_ms" [ t_ne ];
      ms "equilibrium.tracker_ge_ms" tracker_ms;
      ms "best_response.exact_ms" br_ms;
    ]
    @ H.engine_counters snap ~jobs
    @ gc jobs
    @ H.kernel_metrics p0.host p0.profile
  end
