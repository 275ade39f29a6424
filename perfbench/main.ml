(* The layered benchmark's entry point.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe worker        (a serve pool worker, spawned by the serve workload)

   Workloads: converge, sweep, certify, serve (see README.md).  With
   --trace 0 the run reports the end-to-end metrics; with --trace 1 a
   separate traced run reports the per-layer metrics and writes its
   spans under perfbench/_run/.  The last line of standard output is the
   JSON result. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload converge|sweep|certify|serve --seed N --seconds S --trace 0|1";
  exit 2

let workloads =
  [
    ("converge", W_converge.run);
    ("sweep", W_sweep.run);
    ("certify", W_certify.run);
    ("serve", W_serve.run);
  ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "worker" ] -> Gncg_serve.Worker.main stdin stdout
  | args ->
    let rec parse (w, seed, secs, trace) = function
      | [] -> (w, seed, secs, trace)
      | "--workload" :: v :: rest -> parse (Some v, seed, secs, trace) rest
      | "--seed" :: v :: rest -> parse (w, int_of_string_opt v, secs, trace) rest
      | "--seconds" :: v :: rest -> parse (w, seed, float_of_string_opt v, trace) rest
      | "--trace" :: v :: rest -> parse (w, seed, secs, Some v) rest
      | _ -> usage ()
    in
    let workload, seed, seconds, trace =
      match parse (None, None, None, None) args with
      | Some w, Some seed, Some secs, Some (("0" | "1") as t) when secs > 0.0 ->
        (w, seed, secs, t = "1")
      | _ -> usage ()
    in
    let run = match List.assoc_opt workload workloads with Some r -> r | None -> usage () in
    Printexc.record_backtrace true;
    Harness.ensure_run_dir ();
    let tally = Harness.tally () in
    let measured = run ~seed ~seconds ~trace tally in
    let measured =
      if not trace then measured
      else begin
        let spans = Trace.spans () in
        let path =
          Filename.concat Harness.run_dir
            (Printf.sprintf "trace-%s-%d.jsonl" workload seed)
        in
        Trace.write path spans;
        Printf.printf "# %d spans written to %s\n" (List.length spans) path;
        measured
        @ List.map
            (fun (layer, s) -> Harness.metric ("self_s." ^ layer) "s" s)
            (Trace.self_times spans)
      end
    in
    Harness.emit ~workload ~trace tally measured
