(* Orchestration bench (`dune exec bench/orchestration.exe`): the
   work-stealing scheduler against static contiguous chunking on a
   deliberately heterogeneous alpha-sweep.

   Run times across alpha differ by orders of magnitude (small alpha:
   dense equilibria found in a handful of moves; large alpha: long
   add/delete/swap cascades), so static chunking strands every fast
   chunk behind the slowest one.  The bench reports wall clock for
   (a) sequential, (b) static chunks via Exec.init, (c) the
   work-stealing scheduler, and hard-asserts that all three produce the
   same per-job results.  Speedups are hardware dependent (on a 1-core
   container all three are within noise); the equivalence assertions are
   the part CI would care about. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let fail fmt =
  Printf.ksprintf (fun msg -> prerr_endline ("orchestration: " ^ msg); exit 1) fmt

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (match args with
  | "--domains" :: d :: _ -> (
    match int_of_string_opt d with
    | Some k when k >= 1 -> Gncg_util.Exec.set_default_domains (Some k)
    | _ -> fail "--domains expects a positive integer, got %S" d)
  | _ -> ());
  let model = Gncg_workload.Instances.General { lo = 1.0; hi = 6.0 } in
  (* Heterogeneous on purpose: alpha spans two orders of magnitude and n
     two sizes, and the grid order (n-major) packs all slow jobs into the
     tail chunks — the adversarial case for static chunking. *)
  let config =
    Gncg_runs.Batch.config model ~ns:[ 12; 24 ] ~alphas:[ 0.5; 1.0; 2.0; 8.0; 32.0 ]
      ~seeds:[ 1; 2; 3 ]
  in
  let jobs = Gncg_runs.Batch.jobs config in
  let n_jobs = List.length jobs in
  let domains = Gncg_util.Exec.default_domains () in
  Printf.printf "orchestration bench: %d jobs, %d domains\n%!" n_jobs domains;
  let sequential, t_seq =
    time (fun () -> List.map Gncg_runs.Job.execute jobs)
  in
  let job_array = Array.of_list jobs in
  let static, t_static =
    time (fun () ->
        Array.to_list
          (Gncg_util.Exec.init ~exec:Gncg_util.Exec.default n_jobs (fun i ->
               Gncg_runs.Job.execute job_array.(i))))
  in
  let stolen, t_steal =
    time (fun () ->
        List.map
          (fun (_, r) ->
            match r.Gncg_runs.Scheduler.outcome with
            | Gncg_runs.Scheduler.Completed run | Gncg_runs.Scheduler.Diverged run -> run
            | _ -> fail "scheduler produced a non-result outcome")
          (Gncg_runs.Scheduler.run
             ~diverged:(fun (r : Gncg_workload.Sweep.run) -> not r.converged)
             Gncg_runs.Job.execute jobs))
  in
  let csv = Gncg_workload.Report.runs_to_csv in
  if csv static <> csv sequential then
    fail "static chunking results differ from sequential";
  if csv stolen <> csv sequential then
    fail "work-stealing results differ from sequential";
  Printf.printf "sequential     %.3f s\n" t_seq;
  Printf.printf "static chunks  %.3f s (%.2fx)\n" t_static (t_seq /. t_static);
  Printf.printf "work stealing  %.3f s (%.2fx vs sequential, %.2fx vs static)\n%!"
    t_steal (t_seq /. t_steal) (t_static /. t_steal);
  print_endline "orchestration ok (all three runners agree per job)"
