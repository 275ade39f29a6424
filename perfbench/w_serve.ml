(* serve: a closed loop of two clients against an in-process `gncg
   serve` daemon with a pool of two worker processes on a Unix socket.
   Each iteration sends a ping, an eq-check (n=16, stabilized, GE) and
   an exact best response (n=9).  Seeds are fresh except one job
   request in eight, which repeats an earlier one and attaches to it
   through the session's dedup.  Compute per request is milliseconds,
   so Protocol, Session and Pool dominate. *)

module H = Harness
module P = Gncg_serve.Protocol
module Session = Gncg_serve.Session
module Server = Gncg_serve.Server
module Client = Gncg_serve.Client
module Pool = Gncg_serve.Pool
module Json = Gncg_runs.Json

let workers = 2
let clients = 2
let model = Gncg_workload.Instances.Euclid { norm = L2; d = 2; box = 100.0 }
let repeat_every = 8

(* The session keeps every job it ran, so the daemon's footprint grows
   with the requests served; memory is read once this many job requests
   have completed, so that a faster daemon is not charged for serving
   more of them in the window. *)
let memory_after = 3000
let sample_every = 16

(* Job requests per window of [wall_s]: wall_s is the median time the
   closed loop takes to complete this many. *)
let window = 200

type daemon = { session : Session.t; server : Thread.t; path : string; state_dir : string }

let start k =
  let base = Filename.concat H.run_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) k) in
  let path = base ^ ".sock" in
  let state_dir = base ^ "-state" in
  let session =
    Session.create ~state_dir ~workers
      ~pool_spawn:(Pool.spawn_exec [| Sys.executable_name; "worker" |])
      ()
  in
  let server = Thread.create (fun () -> Server.serve_unix session ~path) () in
  let deadline = H.now () +. 10.0 in
  while not (Sys.file_exists path) do
    if H.now () > deadline then failwith "serve: daemon socket never appeared";
    Thread.delay 0.005
  done;
  { session; server; path; state_dir }

let stop d =
  (match Client.connect_unix ~path:d.path with
  | Ok c ->
    ignore (Client.shutdown c);
    Client.close c
  | Error _ -> ());
  Thread.join d.server;
  (* query jobs leave the state directory empty *)
  try Unix.rmdir d.state_dir with Unix.Unix_error _ -> ()

let ok = function Ok v -> v | Error e -> failwith (Gncg_util.Gncg_error.to_string e)

let job ~seed ~k =
  if k mod 2 = 0 then
    P.Eq_check { model; n = 16; alpha = 2.0; seed; check = Gncg.Equilibrium.GE; stabilize = true }
  else P.Best_response { model; n = 9; alpha = 2.0; seed; agent = seed mod 9 }

type request = {
  job : P.job;
  submit_s : float;
  exec_s : float;
  finished : float;  (** completion time *)
  result : (string * Json.t) list;  (** event name -> data *)
  failure : string option;
}

(* Submit, then watch to the terminal event. *)
let request ?(req = 0) c job =
  Trace.with_span ~req "serve.request" (fun parent ->
      match
        Trace.with_span ~parent ~req "session.submit" (fun _ -> H.time (fun () -> Client.submit c job))
      with
      | Error e, submit_s ->
        { job; submit_s; exec_s = 0.0; finished = H.now (); result = [];
          failure = Some ("refused: " ^ Gncg_util.Gncg_error.to_string e) }
      | Ok (id, _), submit_s ->
        let events = ref [] in
        let r, exec_s =
          Trace.with_span ~parent ~req "serve.exec" (fun _ ->
              H.time (fun () ->
                  Client.watch c ~on_event:(fun ev -> events := (ev.P.name, ev.P.data) :: !events) id))
        in
        let failure =
          match r with
          | Error e -> Some ("watch failed: " ^ Gncg_util.Gncg_error.to_string e)
          | Ok data -> (
            match Result.bind (Json.member "state" data) Json.get_string with
            | Ok "done" -> None
            | Ok s -> Some ("job ended " ^ s)
            | Error e -> Some e)
        in
        { job; submit_s; exec_s; finished = H.now (); result = !events; failure })

type loop = {
  requests : request list;
  pings : (float * bool) list;  (** round trip, answered *)
  started : float;
  ended : float;
}

type counter = { completed : int Atomic.t; memory : H.metric list option Atomic.t }

(* One client's closed loop until [until]: ping, eq-check, best
   response, next iteration only after all three complete.  Seeds are
   drawn from a per-client range of the workload seed. *)
let client_loop ~path ~seed ~until ~req_ids ~counter =
  let c = ok (Client.connect_unix ~path) in
  let requests = ref [] and pings = ref [] and k = ref 0 in
  let started = H.now () in
  while H.now () < until do
    let req = Atomic.fetch_and_add req_ids 1 in
    let r, ping_s = Trace.with_span ~req "client.ping" (fun _ -> H.time (fun () -> Client.ping c)) in
    pings := (ping_s, Result.is_ok r) :: !pings;
    for half = 0 to 1 do
      let j = (2 * !k) + half in
      let fresh = (seed * 1_000_000) + j in
      (* the repeat reuses the seed of the previous request of its kind *)
      let s = if j mod repeat_every = repeat_every - 1 then fresh - 2 else fresh in
      requests := request ~req:(Atomic.fetch_and_add req_ids 1) c (job ~seed:s ~k:half) :: !requests;
      if Atomic.fetch_and_add counter.completed 1 = memory_after - 1 then
        Atomic.set counter.memory (Some (H.memory_metrics ()))
    done;
    incr k
  done;
  Client.close c;
  { requests = List.rev !requests; pings = !pings; started; ended = H.now () }

(* [phase] keeps the seeds of successive loops against one daemon
   apart, so that only the deliberate repeats attach. *)
let run_clients ?(phase = 0) ~path ~seed ~seconds () =
  let until = H.now () +. seconds in
  let req_ids = Atomic.make 1 in
  let counter = { completed = Atomic.make 0; memory = Atomic.make None } in
  let results = Array.make clients None in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              Some (client_loop ~path ~seed:((((seed * 8) + phase) * clients) + i) ~until ~req_ids ~counter))
          ())
  in
  List.iter Thread.join threads;
  (* a loop too slow to reach [memory_after] reads memory at its end *)
  let memory = match Atomic.get counter.memory with Some m -> m | None -> H.memory_metrics () in
  (Array.to_list results |> List.map Option.get, memory)

(* The times the loop took to complete each run of [window] consecutive
   job requests. *)
let window_walls loops =
  let t = Array.of_list (List.concat_map (fun l -> List.map (fun r -> r.finished) l.requests) loops) in
  Array.sort Float.compare t;
  List.init ((Array.length t - 1) / window) (fun k -> t.((k + 1) * window) -. t.(k * window))

let sampled loops =
  List.concat_map (fun l -> List.filteri (fun i _ -> i mod sample_every = 0) l.requests) loops

(* Sampled replies must equal the same job computed in this process. *)
let verify tally d loops =
  List.iter
    (fun l ->
      List.iter
        (fun r -> H.check tally (r.failure = None) (lazy (Option.value ~default:"" r.failure)))
        l.requests;
      List.iter (fun (_, answered) -> H.check tally answered (lazy "ping refused")) l.pings)
    loops;
  List.iter
    (fun r ->
      if r.failure = None then begin
        let name, data = Gncg_serve.Worker.eval_query (Gncg_serve.Worker.Cache.create ()) r.job in
        H.check tally
          (List.exists (fun (n, d) -> n = name && Json.to_string d = Json.to_string data) r.result)
          (lazy ("reply differs from in-process computation: " ^ P.job_canonical r.job))
      end)
    (sampled loops);
  let get k f =
    match Session.pool_status d.session with
    | Some st -> Result.bind (Json.member k st) f
    | None -> Error "worker pool not running"
  in
  H.check tally (get "restarts" Json.get_int = Ok 0) (lazy "the pool restarted a worker");
  H.check tally (get "breaker_open" Json.get_bool = Ok false) (lazy "the pool breaker is open")

let warm_up d ~seed = ignore (run_clients ~phase:1 ~path:d.path ~seed ~seconds:0.5 ())

let latencies loops =
  List.concat_map
    (fun l -> List.filter_map (fun r -> if r.failure = None then Some (r.submit_s +. r.exec_s) else None) l.requests)
    loops

let tail_metrics loops =
  let lat = latencies loops in
  let pings = List.concat_map (fun l -> List.map fst l.pings) loops in
  let pct name p xs =
    Option.map (fun v -> H.metric ~samples:(List.length xs) name "ms" (1e3 *. v)) (H.Stats.percentile p xs)
  in
  List.filter_map Fun.id
    [
      Some (H.median_metric ~scale:1e3 "req_p50_ms" "ms" lat);
      pct "req_p99_ms" 0.99 lat;
      pct "ping_p99_ms" 0.99 pings;
    ]

let run ~seed ~seconds ~trace tally =
  if not trace then begin
    (* set-up: daemon and pool start plus warm-up, three times *)
    let last = ref None and k = ref 0 in
    let d, setups =
      H.repeated_setup ~reps:3 (fun () ->
          Option.iter stop !last;
          incr k;
          let d = start !k in
          warm_up d ~seed;
          last := Some d;
          d)
    in
    let loops, memory = run_clients ~path:d.path ~seed ~seconds () in
    verify tally d loops;
    stop d;
    let requests = List.fold_left (fun a l -> a + List.length l.requests + List.length l.pings) 0 loops in
    let span = List.fold_left (fun a l -> Float.max a (l.ended -. l.started)) 0.0 loops in
    let lat = latencies loops in
    [
      H.median_metric "setup_s" "s" setups;
      H.median_metric "wall_s" "s" (window_walls loops);
      H.median_metric "job_p50_s" "s" lat;
      H.metric ~samples:requests "req_per_s" "1/s" (float_of_int requests /. span);
    ]
    @ memory
    @ tail_metrics loops
  end
  else begin
    let d = start 0 in
    warm_up d ~seed;
    let idle =
      let c = ok (Client.connect_unix ~path:d.path) in
      let xs = List.init 200 (fun _ -> snd (H.time (fun () -> ignore (ok (Client.ping c))))) in
      Client.close c;
      xs
    in
    let untraced, _ = run_clients ~phase:2 ~path:d.path ~seed ~seconds:(seconds /. 2.0) () in
    verify tally d untraced;
    Trace.enable ();
    let ((traced, _), gc), snap =
      H.profiled (fun () ->
          H.gc_per_unit (fun () -> run_clients ~phase:3 ~path:d.path ~seed ~seconds:(seconds /. 2.0) ()))
    in
    verify tally d traced;
    stop d;
    let reqs = List.concat_map (fun l -> l.requests) traced in
    let ok_reqs = List.filter (fun r -> r.failure = None) reqs in
    let ms name xs = H.median_metric ~scale:1e3 name "ms" xs in
    (* latency minus the same job computed directly, on a cold cache as
       a fresh seed meets it in a worker *)
    let overhead =
      List.map
        (fun r ->
          let _, direct =
            H.time (fun () ->
                Gncg_serve.Worker.eval_query (Gncg_serve.Worker.Cache.create ()) r.job)
          in
          r.submit_s +. r.exec_s -. direct)
        (List.filter (fun r -> r.failure = None) (sampled traced))
    in
    let host, profile =
      let h, p =
        Gncg_serve.Worker.Cache.host_and_profile (Gncg_serve.Worker.Cache.create ()) ~model ~n:16
          ~alpha:2.0 ~seed
      in
      match
        Gncg.Dynamics.run
          (Gncg.Dynamics.Config.make ~max_steps:5000 ~evaluator:`Incremental
             Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
          h p
      with
      | Gncg.Dynamics.Converged { profile; _ } -> (h, profile)
      | _ -> (h, p)
    in
    let median_wall ls = H.Stats.median (window_walls ls) in
    [
      H.metric "trace.overhead_ratio" "ratio" (median_wall traced /. median_wall untraced);
      ms "client.ping_idle_ms" idle;
      ms "session.submit_ms" (List.map (fun r -> r.submit_s) ok_reqs);
      ms "serve.exec_ms" (List.map (fun r -> r.exec_s) ok_reqs);
      ms "serve.overhead_ms" overhead;
      (let attached = H.counter snap "serve.jobs_attached" in
       H.metric "session.dedup_hit_ratio" "ratio"
         (H.ratio attached (attached +. H.counter snap "serve.jobs_submitted")));
      H.metric "pool.dispatch_ns" "ns" (H.hist_mean snap "serve.pool.dispatch_ns");
      H.metric "pool.restarts" "count" (H.counter snap "serve.pool.restarts");
      H.metric "pool.requeues" "count" (H.counter snap "serve.pool.requeues");
    ]
    @ H.engine_counters snap ~jobs:(List.length reqs)
    @ gc (List.length reqs)
    @ tail_metrics traced
    @ H.kernel_metrics host profile
  end
