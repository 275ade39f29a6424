(* converge: sequential-engine, incremental-evaluator, round-robin
   dynamics run to an outcome on 16 instances at n=80, half greedy on
   the BENCH_4 recipe, half add-only on 1-inf hosts.  The distance
   kernels, Net_state writes and Dynamics do nearly all the work; the
   add-only half is where the dirty-row skip rule pays.  Many mid-size
   instances rather than two at n=150: a single instance's converge time
   varies by 15-20% with its seed, and 16 of them average that out. *)

module H = Harness
module D = Gncg.Dynamics

type instance = {
  label : string;
  host : Gncg.Host.t;
  start : Gncg.Strategy.t;
  rule : D.rule;
  kind : Gncg.Equilibrium.kind;  (** what a converged profile must be *)
}

let n = 80
let per_family = 8

let instances seed =
  let rng = Gncg_util.Prng.create seed in
  let instance k =
    (* the BENCH_4 recipe *)
    let greedy =
      let host =
        Gncg.Host.make ~alpha:2.0
          (Gncg_metric.Random_host.uniform_metric rng ~n ~lo:1.0 ~hi:6.0)
      in
      {
        label = Printf.sprintf "greedy-%d" k;
        host;
        start = Gncg_workload.Instances.random_profile rng host;
        rule = D.Greedy_response;
        kind = Gncg.Equilibrium.GE;
      }
    in
    let add_only =
      let host = Gncg_workload.Instances.random_host rng (One_inf { p = 0.5 }) ~n ~alpha:0.5 in
      {
        label = Printf.sprintf "add-only-%d" k;
        host;
        start = Gncg_workload.Instances.random_profile rng host;
        rule = D.Add_only;
        kind = Gncg.Equilibrium.AE;
      }
    in
    [ greedy; add_only ]
  in
  List.concat (List.init per_family instance)

let setup seed =
  let insts = instances seed in
  (* warm-up: the initial distance matrix every run starts by building *)
  List.iter (fun i -> ignore (Gncg.Net_state.create ~require_mutable:true i.host i.start)) insts;
  insts

let converge inst =
  D.run
    (D.Config.make ~max_steps:50_000 ~evaluator:`Incremental inst.rule D.Round_robin)
    inst.host inst.start

(* Greedy dynamics need not converge (no finite improvement property):
   a certified improving-move cycle is as much a result as an
   equilibrium, and both are digested. *)
let digest = function
  | D.Converged { profile; _ } ->
    Some ("eq:" ^ Digest.to_hex (Digest.string (Gncg.Strategy.canonical_key profile)))
  | D.Cycle { profiles; _ } ->
    let keys = String.concat "|" (List.map Gncg.Strategy.canonical_key profiles) in
    Some ("cycle:" ^ Digest.to_hex (Digest.string keys))
  | D.Out_of_steps _ -> None

(* One pass: every instance, each timed. *)
let pass ?(parent = 0) insts =
  List.map
    (fun inst ->
      Trace.with_span ~parent "dynamics.run" (fun _ -> H.time (fun () -> converge inst)))
    insts

(* The first pass fixes each instance's reference digest once its
   outcome is verified — a converged profile must be an equilibrium of
   the rule's kind per Equilibrium.Tracker, a cycle must return to its
   first profile — and every later pass must reproduce it. *)
let verify tally insts =
  let refs = Hashtbl.create 16 in
  fun results ->
    List.iter2
      (fun inst (outcome, _) ->
        match (digest outcome, Hashtbl.find_opt refs inst.label) with
        | None, _ -> H.check tally false (lazy (inst.label ^ ": no outcome within 50000 steps"))
        | Some dg, Some r ->
          H.check tally (r = dg) (lazy (inst.label ^ ": outcome digest changed"))
        | Some dg, None ->
          let ok =
            match outcome with
            | D.Converged { profile; _ } ->
              let st = Gncg.Net_state.create ~require_mutable:true inst.host profile in
              Gncg.Equilibrium.Tracker.(is_equilibrium (create inst.kind st))
            | D.Cycle { profiles; _ } ->
              List.length profiles >= 2
              && Gncg.Strategy.equal (List.hd profiles) (List.nth profiles (List.length profiles - 1))
            | D.Out_of_steps _ -> false
          in
          H.check tally ok (lazy (inst.label ^ ": outcome fails its certificate"));
          Hashtbl.replace refs inst.label dg)
      insts results

let run ~seed ~seconds ~trace tally =
  if not trace then begin
    let insts, setups = H.repeated_setup ~reps:9 (fun () -> setup seed) in
    let check = verify tally insts in
    let runs, memory = H.passes ~seconds (fun () -> pass insts) in
    List.iter (fun (r, _) -> check r) runs;
    H.batch_metrics ~setups ~memory ~walls:(List.map snd runs)
      ~jobs:(List.concat_map (fun (r, _) -> List.map snd r) runs)
  end
  else begin
    let insts = setup seed in
    let traced, gc, snap, overhead, _ =
      H.traced_passes ~check:(verify tally insts) ~root:"converge.pass" (fun parent ->
          pass ~parent insts)
    in
    let jobs = List.length insts in
    let gc = gc jobs in
    let words = List.find (fun m -> m.H.name = "gc.minor_words") gc in
    let inst, final =
      List.find_map
        (fun (inst, (o, _)) ->
          match o with D.Converged { profile; _ } -> Some (inst, profile) | _ -> None)
        (List.combine insts traced)
      |> Option.value ~default:(List.hd insts, (List.hd insts).start)
    in
    [
      overhead;
      H.median_metric "dynamics.converge_s" "s" (List.map snd traced);
      H.metric "dynamics.minor_words_per_eval" "words"
        (H.ratio (words.H.value *. float_of_int jobs) (H.counter snap "dynamics.evaluations"));
    ]
    @ H.engine_counters snap ~jobs
    @ gc
    @ H.kernel_metrics inst.host final
  end
