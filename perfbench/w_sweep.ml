(* sweep: the paper's Price-of-Anarchy series as `gncg sweep run`
   produces it — a journaled Batch.run per default model, n=32,
   alpha in {1, 4}, three seeds, two domains: 36 jobs.  Social_optimum
   takes most of each job, so scheduler imbalance and journal cost
   show while the dynamics kernels barely work. *)

module H = Harness
module I = Gncg_workload.Instances
module Job = Gncg_runs.Job
module Batch = Gncg_runs.Batch
module Journal = Gncg_runs.Journal
module Scheduler = Gncg_runs.Scheduler

let n = 32
let alphas = [ 1.0; 4.0 ]
let seeds_per_point = 3
let domains = 2

type prepared = { configs : Batch.config list; specs : Job.spec list }

let configs seed =
  let rng = Gncg_util.Prng.create seed in
  let base = Gncg_util.Prng.int rng 1_000_000 * seeds_per_point in
  let seeds = List.init seeds_per_point (fun k -> base + k) in
  List.map
    (fun m -> Batch.config ~rule:Job.Greedy_response ~evaluator:`Incremental m ~ns:[ n ] ~alphas ~seeds)
    I.default_models

(* Set-up generates and validates every job's host and start profile —
   the instance generation each job then repeats inside Job.execute. *)
let setup seed =
  let configs = configs seed in
  let specs = List.concat_map Batch.jobs configs in
  List.iter
    (fun (s : Job.spec) ->
      let rng = Gncg_util.Prng.create s.seed in
      let host = I.random_host rng s.model ~n:s.n ~alpha:s.alpha in
      (match I.validate_host s.model host with
      | Ok () -> ()
      | Error e -> failwith (Gncg_util.Gncg_error.to_string e));
      ignore (I.random_profile rng host))
    specs;
  { configs; specs }

let journal k = Filename.concat H.run_dir (Printf.sprintf "sweep-%d.jsonl" k)

type pass = {
  reports : (Job.spec * Gncg_workload.Sweep.run Scheduler.report) list;
  csv : string;  (** every run, in job order *)
}

let pass ?(parent = 0) p =
  let lock = Mutex.create () in
  let reports = ref [] in
  let on_result spec r = Mutex.protect lock (fun () -> reports := (spec, r) :: !reports) in
  let runs =
    List.concat
      (List.mapi
         (fun k c ->
           Trace.with_span ~parent "runs.batch" (fun _ ->
               (Batch.run ~domains ~on_result ~journal:(journal k) c).Batch.runs))
         p.configs)
  in
  { reports = !reports; csv = Gncg_workload.Report.runs_to_csv runs }

let is_done : _ Scheduler.outcome -> bool = function
  | Scheduler.Completed _ | Scheduler.Diverged _ -> true
  | Scheduler.Timeout | Scheduler.Crashed _ -> false

(* Every job must finish Completed or Diverged, every pass must yield
   the same CSV, and each model's journal must hold all its jobs. *)
let verify tally p =
  let first = ref None in
  fun r ->
    List.iter
      (fun ((s : Job.spec), (rep : _ Scheduler.report)) ->
        H.check tally (is_done rep.outcome) (lazy ("job " ^ Job.hash s ^ " did not complete")))
      r.reports;
    H.check tally
      (List.length r.reports = List.length p.specs)
      (lazy "a pass reported the wrong number of jobs");
    let d = Digest.string r.csv in
    (match !first with
    | None -> first := Some d
    | Some d0 -> H.check tally (d = d0) (lazy "sweep CSV digest changed"));
    List.iteri
      (fun k _ ->
        H.check tally
          (match Journal.load (journal k) with
          | Ok l -> List.length l.entries = List.length alphas * seeds_per_point && l.dropped = 0
          | Error _ -> false)
          (lazy (Printf.sprintf "journal %d is incomplete" k)))
      p.configs

let csv_row run = Gncg_workload.Report.runs_to_csv [ run ]

(* Job.execute in this process, for comparison with the batch's row. *)
let check_against_execute tally spec run_of =
  let direct = Job.execute spec in
  match run_of spec with
  | Some run ->
    H.check tally (csv_row run = csv_row direct)
      (lazy ("job " ^ Job.hash spec ^ " differs from in-process Job.execute"))
  | None -> H.check tally false (lazy "sampled job missing from the batch")

let run_of r (spec : Job.spec) =
  List.find_map
    (fun ((s : Job.spec), (rep : _ Scheduler.report)) ->
      if Job.hash s = Job.hash spec then
        match rep.outcome with
        | Scheduler.Completed run | Scheduler.Diverged run -> Some run
        | _ -> None
      else None)
    r.reports

type phases = {
  run : Gncg_workload.Sweep.run;
  host : Gncg.Host.t;
  profile : Gncg.Strategy.t;  (** the dynamics' final profile *)
  host_s : float;
  dynamics_s : float;
  optimum_s : float;  (** Social_optimum.best_known, part of [quality_s] *)
  quality_s : float;
}

(* The phases of one job, replicated outside the scheduler in the order
   Sweep.dynamics_run runs them, so each can be timed on its own. *)
let phases ?(parent = 0) (s : Job.spec) =
  let span name f = Trace.with_span ~parent name (fun _ -> H.time f) in
  let (host, start, rng), host_s =
    span "workload.instance" (fun () ->
        let rng = Gncg_util.Prng.create s.seed in
        let host = I.random_host rng s.model ~n:s.n ~alpha:s.alpha in
        (host, I.random_profile rng host, rng))
  in
  let outcome, dynamics_s =
    span "dynamics.run" (fun () ->
        Gncg.Dynamics.run
          (Gncg.Dynamics.Config.make ~max_steps:s.max_steps ~evaluator:s.evaluator
             (Job.dynamics_rule s.rule)
             (Gncg.Dynamics.Random_order (Gncg_util.Prng.split rng)))
          host start)
  in
  let profile, converged, steps =
    match outcome with
    | Gncg.Dynamics.Converged { profile; steps; _ } -> (profile, true, List.length steps)
    | Gncg.Dynamics.Cycle { profiles; steps } -> (List.hd profiles, false, List.length steps)
    | Gncg.Dynamics.Out_of_steps { profile; steps } -> (profile, false, List.length steps)
  in
  let (_, opt_cost), optimum_s =
    span "social_optimum.best_known" (fun () -> Gncg.Social_optimum.best_known host)
  in
  let run, rest_s =
    span "quality.measures" (fun () ->
        let stable_cost = Gncg.Cost.social_cost host profile in
        let g = Gncg.Network.graph host profile in
        {
          Gncg_workload.Sweep.model = I.model_name s.model;
          n = s.n;
          alpha = s.alpha;
          seed = s.seed;
          converged;
          steps;
          stable_cost;
          opt_cost;
          ratio = (if converged then stable_cost /. opt_cost else Float.nan);
          diameter = Gncg_graph.Dijkstra.diameter g;
          stretch = Gncg.Quality.host_stretch host g;
          is_tree = Gncg_graph.Connectivity.is_tree g;
        })
  in
  { run; host; profile; host_s; dynamics_s; optimum_s; quality_s = optimum_s +. rest_s }

(* Appends the given journal rows to a scratch journal, one at a time. *)
let append_us configs entries =
  let j =
    Journal.create (Filename.concat H.run_dir "sweep-append.jsonl") (Batch.manifest (List.hd configs))
  in
  let a = Array.of_list entries in
  let ns, calls = H.ns_per_call (fun i -> Journal.append j a.(i mod Array.length a)) in
  Journal.close j;
  H.metric ~samples:calls "journal.append_us" "us" (ns /. 1e3)

let run ~seed ~seconds ~trace tally =
  if not trace then begin
    let p, setups = H.repeated_setup ~reps:9 (fun () -> setup seed) in
    let check = verify tally p in
    let runs, memory = H.passes ~seconds (fun () -> pass p) in
    List.iter (fun (r, _) -> check r) runs;
    (* three jobs, chosen by the seed, recomputed by Job.execute *)
    let last = fst (List.nth runs (List.length runs - 1)) in
    let rng = Gncg_util.Prng.create (seed + 1) in
    let specs = Array.of_list p.specs in
    List.iter
      (fun k -> check_against_execute tally specs.(k) (run_of last))
      (Gncg_util.Prng.sample_without_replacement rng 3 (Array.length specs));
    H.batch_metrics ~setups ~memory ~walls:(List.map snd runs)
      ~jobs:
        (List.concat_map
           (fun (r, _) -> List.map (fun (_, rep) -> rep.Scheduler.elapsed) r.reports)
           runs)
  end
  else begin
    let p = setup seed in
    let traced, gc, snap, overhead, wall =
      H.traced_passes ~check:(verify tally p) ~root:"sweep.pass" (fun parent -> pass ~parent p)
    in
    let jobs = List.length p.specs in
    let sum = List.fold_left ( +. ) 0.0 in
    let elapsed = List.map (fun (_, r) -> r.Scheduler.elapsed) traced.reports in
    let attempts = List.map (fun (_, r) -> float_of_int r.Scheduler.attempts) traced.reports in
    (* the first job of each model, replicated phase by phase and
       checked against the batch's row *)
    let replicated =
      List.map
        (fun c ->
          let spec = List.hd (Batch.jobs c) in
          let ph = Trace.with_span "runs.job" (fun id -> phases ~parent:id spec) in
          H.check tally
            (Option.map csv_row (run_of traced spec) = Some (csv_row ph.run))
            (lazy ("job " ^ Job.hash spec ^ ": replicated phases differ from the batch"));
          ph)
        p.configs
    in
    let col f = List.map f replicated in
    let entries =
      List.concat_map
        (fun k -> match Journal.load (journal k) with Ok l -> l.entries | Error _ -> [])
        (List.init (List.length p.configs) Fun.id)
    in
    let first = List.hd replicated in
    [
      overhead;
      H.metric "scheduler.busy_frac" "ratio" (sum elapsed /. (wall *. float_of_int domains));
      H.metric ~samples:jobs "scheduler.attempts_per_job" "count" (sum attempts /. float_of_int jobs);
      append_us p.configs entries;
      H.median_metric "job.host_s" "s" (col (fun ph -> ph.host_s));
      H.median_metric "job.dynamics_s" "s" (col (fun ph -> ph.dynamics_s));
      H.median_metric "job.quality_s" "s" (col (fun ph -> ph.quality_s));
      H.median_metric "dynamics.converge_s" "s" (col (fun ph -> ph.dynamics_s));
      H.median_metric "social_optimum.best_known_s" "s" (col (fun ph -> ph.optimum_s));
      H.metric "social_optimum.share" "ratio"
        (sum (col (fun ph -> ph.optimum_s))
        /. sum (col (fun ph -> ph.host_s +. ph.dynamics_s +. ph.quality_s)));
    ]
    @ H.engine_counters snap ~jobs
    @ gc jobs
    @ H.kernel_metrics first.host first.profile
  end
