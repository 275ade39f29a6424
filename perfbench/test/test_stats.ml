(* The benchmark's statistics helpers, checked against values Python's
   statistics module gives for the same inputs. *)

module S = Perfbench_stats.Stats

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-12

let () =
  check "median odd" (close (S.median [ 3.; 1.; 2. ]) 2.);
  check "median even" (close (S.median [ 4.; 1.; 3.; 2. ]) 2.5);
  check "median empty raises"
    (match S.median [] with _ -> false | exception Invalid_argument _ -> true);
  (* statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = S.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  check "quartiles 1..10" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  let q1, q2, q3 = S.quartiles [ 2.; 1. ] in
  check "quartiles two samples" (close q1 0.75 && close q2 1.5 && close q3 2.25);
  (* statistics.quantiles([7, 1, 4, 9, 3], n=4) == [2.0, 4.0, 8.0] *)
  let q1, q2, q3 = S.quartiles [ 7.; 1.; 4.; 9.; 3. ] in
  check "quartiles five samples" (close q1 2.0 && close q2 4.0 && close q3 8.0);
  check "quartiles one sample raises"
    (match S.quartiles [ 1. ] with _ -> false | exception Invalid_argument _ -> true);
  (* the ten-beyond rule *)
  check "p99 of 1000 has ten beyond" (S.beyond 0.99 1000 = 10);
  check "p99 of 999 has nine beyond" (S.beyond 0.99 999 = 9);
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  check "p99 reported at 1000" (S.percentile 0.99 (xs 1000) = Some 990.);
  check "p99 withheld at 999" (S.percentile 0.99 (xs 999) = None);
  check "p50 withheld below 20" (S.percentile 0.5 (xs 19) = None);
  check "p50 reported at 20" (S.percentile 0.5 (xs 20) = Some 10.);
  if !failures > 0 then exit 1 else print_endline "test_stats: all checks passed"
