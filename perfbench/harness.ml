(* Shared machinery of the workloads: clocks, failure accounting, the
   setup/pass loop, layer micro-timings, and the output contract. *)

module Obs = Gncg_obs.Obs
module M = Gncg_obs.Metric
module Json = Gncg_runs.Json
module Stats = Perfbench_stats.Stats

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Run artifacts (sockets, journals, traces) live here, relative to the
   checkout root the benchmark runs from: a Unix socket path must stay
   short, and the benchmark writes nothing outside its checkout. *)
let run_dir = Filename.concat "perfbench" "_run"

let ensure_run_dir () =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755

(* {1 Metrics} *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }

(* A timing as its median, with the sample count it rests on. *)
let median_metric ?(scale = 1.0) name unit_ xs =
  metric ~samples:(List.length xs) name unit_ (scale *. Stats.median xs)

(* {1 Failures} *)

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list; lock : Mutex.t }

let tally () = { attempted = 0; failed = 0; notes = []; lock = Mutex.create () }

(* Counts one attempted operation; [ok = false] counts it failed too,
   with a note printed before the result line. *)
let check t ok note =
  Mutex.protect t.lock (fun () ->
      t.attempted <- t.attempted + 1;
      if not ok then begin
        t.failed <- t.failed + 1;
        if List.length t.notes < 20 then t.notes <- Lazy.force note :: t.notes
      end)

(* {1 Set-up and measurement loop} *)

(* Runs the set-up [reps] times and keeps the last product: set-up time
   is reported as the median of the repetitions. *)
let repeated_setup ~reps setup =
  let rec go k last times =
    if k = reps then (Option.get last, times)
    else
      let r, dt = time setup in
      go (k + 1) (Some r) (dt :: times)
  in
  go 0 None []

(* {1 Runtime figures} *)


(* Peak resident set of this process (VmHWM): what the machine had to
   provide, steadier run to run than the Gc top heap, which on a
   multi-domain run swings with major-slice timing. *)
let rss_peak_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> Float.nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

let heap_peak_mb () =
  float_of_int (Gc.quick_stat ()).top_heap_words *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

let memory_metrics () =
  [ metric "heap_peak_mb" "MB" (heap_peak_mb ()); metric "rss_peak_mb" "MB" (rss_peak_mb ()) ]

(* Runs [pass] back to back for [seconds]: a further pass starts only
   when one more of the longest seen still ends inside the window, so a
   run lasts about [seconds] whatever the pass length; at least one
   pass always runs.  Memory is read after the first pass, so that it
   does not grow with the number of passes a faster program fits into
   the window. *)
let passes ~seconds pass =
  let stop = now () +. seconds in
  let first = time pass in
  let memory = memory_metrics () in
  let rec go acc longest =
    if now () +. longest > stop then List.rev acc
    else
      let r, dt = time pass in
      go ((r, dt) :: acc) (Float.max longest dt)
  in
  (go [ first ] (snd first), memory)

(* Allocation and collections over [f] in every domain; the second
   component states them per unit of work, once the unit count is
   known. *)
let gc_per_unit f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  ( r,
    fun units ->
      let per x = x /. float_of_int (max 1 units) in
      [
        metric "gc.minor_words" "words" (per (b.minor_words -. a.minor_words));
        metric "gc.minor_collections" "count"
          (per (float_of_int (b.minor_collections - a.minor_collections)));
        metric "gc.major_collections" "count"
          (per (float_of_int (b.major_collections - a.major_collections)));
      ] )

(* Runs [f] with the engine's obs counters on and zeroed; returns the
   counter snapshot taken right after. *)
let profiled f =
  Obs.set_profiling true;
  Obs.reset ();
  let r = f () in
  let snap = Obs.snapshot () in
  Obs.set_profiling false;
  (r, snap)

let counter (snap : M.snapshot) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name snap.counters))

let hist_mean (snap : M.snapshot) name =
  match List.assoc_opt name snap.histograms with
  | Some h when h.M.hcount > 0 -> h.M.hsum /. float_of_int h.M.hcount
  | _ -> 0.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The engine's own counters over a traced pass, per job of the
   workload: what Dynamics, Incr_apsp, Net_state, Fast_response and
   Dist_matrix did, read through Obs.snapshot. *)
let engine_counters snap ~jobs =
  let per name = metric name "count" (counter snap name /. float_of_int (max 1 jobs)) in
  let evals = counter snap "dynamics.evaluations" and skips = counter snap "dynamics.skips" in
  [
    per "dynamics.evaluations";
    per "dynamics.moves";
    per "dynamics.skips";
    metric "dynamics.skip_ratio" "ratio" (ratio skips (skips +. evals));
    metric "dynamics.step_ns" "ns" (hist_mean snap "span.dynamics.step");
    per "incr_apsp.add_kernels";
    per "incr_apsp.whatif_sssp";
    per "incr_apsp.deletion_rows_recomputed";
    per "incr_apsp.rows_relaxed";
    per "net_state.cost_cache_misses";
    metric "net_state.change_rows_per_move" "rows" (hist_mean snap "net_state.change_report_rows");
    metric "fast_response.rowlocal_ratio" "ratio"
      (ratio (counter snap "fast_response.rowlocal_verdicts") (counter snap "fast_response.state_evals"));
    per "dist_matrix.insertions";
    per "dist_matrix.whatif_totals";
  ]

(* The end-to-end figures of a workload that repeats passes over a
   fixed batch of jobs. *)
let batch_metrics ~setups ~walls ~jobs ~memory =
  [
    median_metric "setup_s" "s" setups;
    median_metric "wall_s" "s" walls;
    median_metric "job_p50_s" "s" jobs;
    metric ~samples:(List.length jobs) "req_per_s" "1/s"
      (float_of_int (List.length jobs) /. List.fold_left ( +. ) 0.0 walls);
  ]
  @ memory

(* The traced run's passes: a warm-up pass and an untraced pass, then
   one pass under a [root] span with the obs counters on and spans
   recording.  [pass parent] runs one pass with its spans under
   [parent]; [check] verifies each pass's output.  Returns the traced
   pass, its Gc figures, the counter snapshot, the traced/untraced wall
   ratio and the traced wall. *)
let traced_passes ~check ~root pass =
  check (pass 0);
  let untraced, wall0 = time (fun () -> pass 0) in
  check untraced;
  Trace.enable ();
  let ((traced, gc), wall1), snap =
    profiled (fun () -> time (fun () -> Trace.with_span root (fun id -> gc_per_unit (fun () -> pass id))))
  in
  check traced;
  (traced, gc, snap, metric "trace.overhead_ratio" "ratio" (wall1 /. wall0), wall1)

(* {1 Layer micro-timings} *)

(* Nanoseconds per call of [op i] over [i = 0, 1, 2, ...]: batches sized
   to about a millisecond, repeated for [budget] seconds, median batch. *)
let ns_per_call ?(budget = 0.12) op =
  let i = ref 0 in
  let run k =
    let t0 = now () in
    for _ = 1 to k do
      op !i;
      incr i
    done;
    now () -. t0
  in
  let rec calibrate k = if k >= 1 lsl 20 || run k >= 1e-3 then k else calibrate (2 * k) in
  let k = calibrate 1 in
  let stop = now () +. budget in
  let rec go acc = if acc <> [] && now () > stop then acc else go (run k :: acc) in
  let batches = go [] in
  (1e9 *. Stats.median batches /. float_of_int k, List.length batches * k)

(* Times the distance kernels, the Net_state update and both evaluators
   on one network of the workload: per-call figures that show whether a
   change moved the kernel itself or only how often it is called. *)
let kernel_metrics host profile =
  let st = Gncg.Net_state.create ~require_mutable:true host profile in
  let d = Gncg.Net_state.distances st in
  let g = Gncg.Net_state.graph st in
  let n = Gncg.Host.n host in
  let rng = Gncg_util.Prng.create 17 in
  let sample keep =
    let acc = ref [] in
    for _ = 1 to 20 * n do
      let u = Gncg_util.Prng.int rng n and v = Gncg_util.Prng.int rng n in
      if u < v && keep u v then acc := (u, v) :: !acc
    done;
    let a = Array.of_list (List.sort_uniq compare !acc) in
    Gncg_util.Prng.shuffle rng a;
    Array.sub a 0 (min 64 (Array.length a))
  in
  let finite u v = Float.is_finite (Gncg.Host.weight host u v) in
  let adds =
    sample (fun u v ->
        finite u v
        && Gncg.Move.addable host (Gncg.Net_state.profile st) ~agent:u v
        && not (Gncg_graph.Wgraph.has_edge g u v))
  in
  let edges = sample (fun u v -> Gncg_graph.Wgraph.has_edge g u v) in
  let at a i = a.(i mod Array.length a) in
  let w (u, v) = Gncg.Host.weight host u v in
  let timed name f = let ns, calls = ns_per_call f in metric ~samples:calls name "ns" ns in
  let module Dist = Gncg_graph.Distances in
  let plain =
    [
      timed "distances.rowsum_ns" (fun i -> ignore (Dist.dist_sum d (i mod n)));
      timed "fast_response.best_move_state_ns" (fun i ->
          ignore (Gncg.Fast_response.best_move_state st ~agent:(i mod n)));
      timed "fast_response.best_move_ns" (fun i ->
          ignore (Gncg.Fast_response.best_move host (Gncg.Net_state.profile st) ~agent:(i mod n)));
      metric "distances.bytes_per_add_kernel" "B-computed" (float_of_int (2 * n * 8));
    ]
  in
  let with_adds =
    if Array.length adds = 0 then []
    else
      let flip = Dist.copy d in
      let mv = Gncg.Net_state.copy st in
      (* insert every sampled edge, then delete them in reverse order,
         which restores the matrix for the next round *)
      let k = Array.length adds in
      let stop = now () +. 0.12 in
      let rec rounds adds_t rems_t =
        if adds_t <> [] && now () > stop then (adds_t, rems_t)
        else begin
          let t0 = now () in
          Array.iter (fun (u, v) -> ignore (Dist.add_edge flip u v (w (u, v)))) adds;
          let t1 = now () in
          for i = k - 1 downto 0 do
            let u, v = adds.(i) in
            ignore (Dist.remove_edge flip u v)
          done;
          let t2 = now () in
          rounds ((t1 -. t0) :: adds_t) ((t2 -. t1) :: rems_t)
        end
      in
      let add, rem = rounds [] [] in
      let per_edge name xs =
        metric ~samples:(k * List.length xs) name "ns" (1e9 *. Stats.median xs /. float_of_int k)
      in
      [
        timed "distances.add_kernel_ns" (fun i ->
            let u, v = at adds i in
            ignore (Dist.dist_sum_with_edge d u v (w (u, v))));
        per_edge "distances.add_edge_ns" add;
        per_edge "distances.remove_edge_ns" rem;
        timed "net_state.apply_move_ns" (fun i ->
            let u, v = at adds (i / 2) in
            ignore
              (Gncg.Net_state.apply_move mv ~agent:u
                 (if i mod 2 = 0 then Gncg.Move.Add v else Gncg.Move.Delete v)));
      ]
  in
  let with_edges =
    if Array.length edges = 0 then []
    else
      [
        timed "distances.whatif_sssp_ns" (fun i ->
            let u, v = at edges i in
            ignore (Dist.sssp_edited_sum d ~remove:(u, v) u));
      ]
  in
  plain @ with_adds @ with_edges

(* {1 Output contract}

   BENCHMARK.json (read from the checkout root) declares which metrics
   a run reports and in which unit: every declared end-to-end metric
   must be measured; a declared per-layer metric the workload did not
   measure reads 0 — its layer sat idle on this workload.  Measured
   metrics that are not declared are printed for the reader only. *)

let declared ~trace =
  let key = if trace then "per_layer" else "end_to_end" in
  let fail m = failwith ("BENCHMARK.json: " ^ m) in
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let ( let* ) r f = match r with Ok v -> f v | Error e -> fail e in
  let* doc = Json.parse text in
  let* entries = Result.bind (Json.member key doc) Json.get_list in
  List.map
    (fun e ->
      let* name = Result.bind (Json.member "name" e) Json.get_string in
      let* unit_ = Result.bind (Json.member "unit" e) Json.get_string in
      (name, unit_))
    entries

let number v = Printf.sprintf "%.17g" v

let emit ~workload ~trace tally measured =
  if tally.attempted = 0 then check tally false (lazy "no output was checked");
  let decl = declared ~trace in
  let find name = List.find_opt (fun m -> m.name = name) measured in
  let reported =
    List.map
      (fun (name, unit_) ->
        match find name with
        | Some m when m.unit_ <> unit_ ->
          failwith (Printf.sprintf "metric %s measured in %s, declared in %s" name m.unit_ unit_)
        | Some m -> m
        | None when trace -> metric ~samples:0 name unit_ 0.0
        | None -> failwith (Printf.sprintf "end-to-end metric %s not measured" name))
      decl
  in
  List.iter
    (fun m ->
      check tally (Float.is_finite m.value) (lazy (m.name ^ " is not finite")))
    reported;
  let extra = List.filter (fun m -> not (List.mem_assoc m.name decl)) measured in
  Printf.printf "# workload %s, trace %b, nproc %d\n" workload trace
    (Domain.recommended_domain_count ());
  let line tag m =
    Printf.printf "%s %-36s %18.6f %-10s n=%d\n" tag m.name m.value m.unit_ m.samples
  in
  List.iter (line " ") reported;
  List.iter (line "+") extra;
  Printf.printf "  %-36s %18.6f %-10s n=%d\n" "failed_frac"
    (ratio (float_of_int tally.failed) (float_of_int tally.attempted))
    "ratio" tally.attempted;
  List.iter (fun n -> Printf.printf "# FAILED: %s\n" n) (List.rev tally.notes);
  let value m = if Float.is_finite m.value then number m.value else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0) (max 1 tally.attempted) tally.failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (value m) m.unit_)
          reported))
