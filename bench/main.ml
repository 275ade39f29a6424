(* Reproduction harness: regenerates every table/figure series of the paper
   (experiments E1-E16, see DESIGN.md) and runs the Bechamel timing benches.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- E4 E8        # selected experiments
     dune exec bench/main.exe -- --no-timings # experiments only
     dune exec bench/main.exe -- --timings    # timings only
     dune exec bench/main.exe -- --json PATH  # BENCH_4.json only (see bench4.ml)
     dune exec bench/main.exe -- --json PATH --n 200  # ...at instance size 200
     dune exec bench/main.exe -- --domains 4  # worker domains for the Par paths
     dune exec bench/main.exe -- --trace FILE # JSONL observability trace
     dune exec bench/main.exe -- --profile    # counter summary on stderr at exit *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args, json_path =
    let rec strip_json acc = function
      | "--json" :: path :: rest -> (List.rev_append acc rest, Some path)
      | a :: rest -> strip_json (a :: acc) rest
      | [] -> (List.rev acc, None)
    in
    strip_json [] args
  in
  let args, bench_n =
    let rec strip_n acc = function
      | "--n" :: v :: rest ->
        (match int_of_string_opt v with
        | Some k when k >= 2 -> (List.rev_append acc rest, Some k)
        | _ ->
          prerr_endline ("bench: --n expects an integer >= 2, got " ^ v);
          exit 2)
      | a :: rest -> strip_n (a :: acc) rest
      | [] -> (List.rev acc, None)
    in
    strip_n [] args
  in
  let args, trace_path =
    let rec strip_trace acc = function
      | "--trace" :: path :: rest -> (List.rev_append acc rest, Some path)
      | a :: rest -> strip_trace (a :: acc) rest
      | [] -> (List.rev acc, None)
    in
    strip_trace [] args
  in
  (match trace_path with Some path -> Gncg_obs.Obs.trace_to_file path | None -> ());
  let args =
    let rec strip_profile = function
      | "--profile" :: rest ->
        Gncg_obs.Obs.set_profiling true;
        at_exit (fun () -> Gncg_obs.Obs.print_summary stderr);
        strip_profile rest
      | a :: rest -> a :: strip_profile rest
      | [] -> []
    in
    strip_profile args
  in
  let args =
    let rec strip_domains = function
      | "--domains" :: d :: rest ->
        (match int_of_string_opt d with
        | Some k when k >= 1 -> Gncg_util.Exec.set_default_domains (Some k)
        | _ ->
          prerr_endline ("bench: --domains expects a positive integer, got " ^ d);
          exit 2);
        strip_domains rest
      | a :: rest -> a :: strip_domains rest
      | [] -> []
    in
    strip_domains args
  in
  let timings_only = List.mem "--timings" args in
  let no_timings = List.mem "--no-timings" args in
  let selected = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
  let chosen =
    if selected = [] then Experiments.all
    else List.filter (fun (id, _) -> List.mem id selected) Experiments.all
  in
  match json_path with
  | Some path -> Bench4.run ?n:bench_n ~path ()
  | None ->
    print_endline "Geometric Network Creation Games — reproduction harness";
    print_endline "(paper: Bilo, Friedrich, Lenzner, Melnichenko, SPAA 2019)";
    if not timings_only then List.iter (fun (_, f) -> f ()) chosen;
    if (not no_timings) && selected = [] then Timings.run ()
