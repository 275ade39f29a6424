(* Reproduction harness: regenerates every table/figure series of the paper
   (experiments E1-E23, see EXPERIMENTS.md).  Performance is measured by
   perfbench/ (see BENCHMARK.json), not here.

   Usage:
     dune exec bench/main.exe                 # every experiment
     dune exec bench/main.exe -- E4 E8        # selected experiments
     dune exec bench/main.exe -- --domains 4  # worker domains for the Par paths
     dune exec bench/main.exe -- --trace FILE # JSONL observability trace
     dune exec bench/main.exe -- --profile    # counter summary on stderr at exit

   Any other flag, or an unknown experiment id, exits 2 with the usage line. *)

let usage () =
  prerr_endline
    "usage: main.exe [--domains K] [--trace FILE] [--profile] [E1 .. E23]";
  exit 2

let () =
  let rec parse ids = function
    | "--trace" :: path :: rest ->
      Gncg_obs.Obs.trace_to_file path;
      parse ids rest
    | "--profile" :: rest ->
      Gncg_obs.Obs.set_profiling true;
      at_exit (fun () -> Gncg_obs.Obs.print_summary stderr);
      parse ids rest
    | "--domains" :: d :: rest ->
      (match int_of_string_opt d with
      | Some k when k >= 1 -> Gncg_util.Exec.set_default_domains (Some k)
      | _ ->
        prerr_endline ("bench: --domains expects a positive integer, got " ^ d);
        exit 2);
      parse ids rest
    | id :: rest when List.mem_assoc id Experiments.all -> parse (id :: ids) rest
    | a :: _ ->
      prerr_endline ("bench: unknown argument " ^ a);
      usage ()
    | [] -> List.rev ids
  in
  let selected = parse [] (List.tl (Array.to_list Sys.argv)) in
  let chosen =
    if selected = [] then Experiments.all
    else List.filter (fun (id, _) -> List.mem id selected) Experiments.all
  in
  print_endline "Geometric Network Creation Games — reproduction harness";
  print_endline "(paper: Bilo, Friedrich, Lenzner, Melnichenko, SPAA 2019)";
  List.iter (fun (_, f) -> f ()) chosen
