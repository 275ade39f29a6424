(* The flat-slot graph against a Map model, and the one Dijkstra kernel
   against its own entry points, Floyd-Warshall and the allocator. *)

open Helpers
module Wgraph = Gncg_graph.Wgraph
module Dijkstra = Gncg_graph.Dijkstra
module Prng = Gncg_util.Prng
module Pairs = Map.Make (struct
  type t = int * int

  let compare = compare
end)

(* --- Wgraph against a Map model ------------------------------------------ *)

let model_n = 7

type op = Add of int * int * float | Remove of int * int | Copy

let show_op = function
  | Add (u, v, w) -> Printf.sprintf "add %d-%d %g" u v w
  | Remove (u, v) -> Printf.sprintf "remove %d-%d" u v
  | Copy -> "copy"

let key u v = (min u v, max u v)

let apply_model model = function
  | Add (u, v, w) -> Pairs.add (key u v) w model
  | Remove (u, v) -> Pairs.remove (key u v) model
  | Copy -> model

(* Every observable of [g] agrees with [model]; [what] names the step. *)
let check_against what model g =
  let fail fmt = Printf.ksprintf (fun s -> Alcotest.failf "%s: %s" what s) fmt in
  if Wgraph.n g <> model_n then fail "n";
  if Wgraph.m g <> Pairs.cardinal model then
    fail "m = %d, model has %d" (Wgraph.m g) (Pairs.cardinal model);
  for u = 0 to model_n - 1 do
    let deg = Pairs.fold (fun (a, b) _ d -> if a = u || b = u then d + 1 else d) model 0 in
    if Wgraph.degree g u <> deg then fail "degree %d = %d, model %d" u (Wgraph.degree g u) deg;
    let ids = Wgraph.slot_ids g u and ws = Wgraph.slot_weights g u in
    for i = 0 to deg - 1 do
      if Pairs.find_opt (key u ids.(i)) model <> Some (Float.Array.get ws i) then
        fail "slot %d of %d" i u
    done;
    for v = 0 to model_n - 1 do
      if u <> v then begin
        let expected = Pairs.find_opt (key u v) model in
        if Wgraph.has_edge g u v <> (expected <> None) then fail "has_edge %d %d" u v;
        if Wgraph.weight g u v <> expected then fail "weight %d %d" u v
      end
    done
  done;
  let edges = List.sort compare (Wgraph.edges g) in
  let expected = List.map (fun ((u, v), w) -> (u, v, w)) (Pairs.bindings model) in
  if edges <> expected then fail "sorted edges"

let gen_op =
  let open QCheck.Gen in
  let vertex = int_bound (model_n - 1) in
  let weight = oneofl [ 0.0; 0.5; 1.0; 2.5; 1e-3 ] in
  frequency
    [
      ( 6,
        map3 (fun u d w -> Add (u, (u + 1 + d) mod model_n, w)) vertex
          (int_bound (model_n - 2)) weight );
      (4, map2 (fun u d -> Remove (u, (u + 1 + d) mod model_n)) vertex (int_bound (model_n - 2)));
      (1, return Copy);
    ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 0 80) gen_op)

(* Runs the ops on a graph and on the model.  [Copy] carries on with a
   copy; the abandoned source then gets an edit of its own, and both it
   and the copy must keep matching their own models to the end. *)
let prop_wgraph_model ops =
  let g = ref (Wgraph.create model_n) and model = ref Pairs.empty in
  let sources = ref [] in
  List.iteri
    (fun step op ->
      let what = Printf.sprintf "step %d (%s)" step (show_op op) in
      (match op with
      | Add (u, v, w) -> Wgraph.add_edge !g u v w
      | Remove (u, v) -> Wgraph.remove_edge !g u v
      | Copy ->
        let src = !g in
        g := Wgraph.copy src;
        check_true "copy equal" (Wgraph.equal src !g);
        let edit = Add (0, 1, 99.0) in
        Wgraph.add_edge src 0 1 99.0;
        sources := (src, apply_model !model edit) :: !sources);
      model := apply_model !model op;
      check_against what !model !g;
      List.iter (fun (src, m) -> check_against (what ^ ", source") m src) !sources)
    ops;
  true

let test_remove_last_slot () =
  let g = Wgraph.create 4 in
  List.iter (fun v -> Wgraph.add_edge g 0 v (float_of_int v)) [ 1; 2; 3 ];
  (* Slot order is insertion order; 3 sits in 0's last slot. *)
  Wgraph.remove_edge g 0 3;
  Alcotest.(check int) "degree" 2 (Wgraph.degree g 0);
  Alcotest.(check (list int)) "live slots" [ 1; 2 ]
    (Array.to_list (Array.sub (Wgraph.slot_ids g 0) 0 2));
  check_false "gone" (Wgraph.has_edge g 3 0);
  Alcotest.(check int) "other end empty" 0 (Wgraph.degree g 3);
  (* Removing a middle slot moves the last one into the hole. *)
  Wgraph.add_edge g 0 3 3.0;
  Wgraph.remove_edge g 0 1;
  Alcotest.(check (list int)) "hole filled" [ 3; 2 ]
    (Array.to_list (Array.sub (Wgraph.slot_ids g 0) 0 2));
  Alcotest.(check (option (float 0.0))) "weight moved with it" (Some 3.0) (Wgraph.weight g 0 3)

let test_remove_only_slot () =
  let g = Wgraph.create 3 in
  Wgraph.add_edge g 1 2 0.0;
  Wgraph.remove_edge g 2 1;
  Alcotest.(check int) "m" 0 (Wgraph.m g);
  Alcotest.(check int) "deg 1" 0 (Wgraph.degree g 1);
  Alcotest.(check int) "deg 2" 0 (Wgraph.degree g 2);
  check_true "no edges" (Wgraph.edges g = []);
  Wgraph.add_edge g 2 1 4.0;
  Alcotest.(check (option (float 0.0))) "re-added" (Some 4.0) (Wgraph.weight g 1 2);
  let c = Wgraph.copy g in
  Wgraph.remove_edge c 1 2;
  Alcotest.(check int) "copy emptied" 0 (Wgraph.m c);
  Alcotest.(check (option (float 0.0))) "source kept" (Some 4.0) (Wgraph.weight g 1 2)

(* --- the Dijkstra kernel ------------------------------------------------- *)

(* A random graph after a random edit sequence: zero weights, overwrites
   and removals included, and often disconnected. *)
let edited_graph seed =
  let r = Prng.create (seed + 11) in
  let n = 1 + Prng.int r 30 in
  let g = Wgraph.create n in
  let weight () = if Prng.coin r 0.2 then 0.0 else Prng.float_in r 0.1 8.0 in
  if n > 1 then
    for _ = 1 to 3 * n do
      let u = Prng.int r n and v = Prng.int r n in
      if u <> v then
        if Prng.coin r 0.3 then Wgraph.remove_edge g u v else Wgraph.add_edge g u v (weight ())
    done;
  g

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let prop_kernel_entry_points seed =
  let g = edited_graph seed in
  let n = Wgraph.n g in
  let ws = Dijkstra.workspace (n + 3) in
  let row = Array.make n Float.nan in
  let flat = Float.Array.make ((n * n) + 2) Float.nan in
  let fw = Gncg_graph.Floyd_warshall.closure_of_graph g in
  for s = 0 to n - 1 do
    let fresh = Dijkstra.sssp g s in
    Dijkstra.sssp_into ws g s row;
    Dijkstra.sssp_flat_into ws g s flat ((s * n) + 1);
    let flat_row = Array.init n (fun v -> Float.Array.get flat ((s * n) + 1 + v)) in
    let with_parents = fst (Dijkstra.sssp_with_parents g s) in
    (* The bounded pass keeps exactly the distances within its limit. *)
    let limit = 4.0 in
    let bounded = Dijkstra.sssp_bounded g s limit in
    let cut = Array.map (fun d -> if d <= limit then d else Float.infinity) fresh in
    if
      not
        (same_bits fresh row && same_bits fresh flat_row && same_bits fresh with_parents
       && same_bits cut bounded)
    then QCheck.Test.fail_reportf "source %d: entry points disagree" s;
    Array.iteri
      (fun v d ->
        if not (Gncg_util.Flt.approx_eq d fw.(s).(v)) then
          QCheck.Test.fail_reportf "d(%d,%d) = %g, Floyd-Warshall %g" s v d fw.(s).(v))
      fresh
  done;
  true

let test_sssp_into_allocation () =
  let r = rng 17 in
  let n = 200 in
  let g = random_graph r n (3 * n) in
  let ws = Dijkstra.workspace n and row = Array.make n 0.0 in
  Dijkstra.sssp_into ws g 0 row;
  let calls = 1000 in
  let before = Gc.minor_words () in
  for i = 1 to calls do
    Dijkstra.sssp_into ws g (i mod n) row
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  if per_call > 1.0 then Alcotest.failf "sssp_into: %.1f minor words per call" per_call;
  let before = Gc.minor_words () in
  let total = ref 0.0 in
  for _ = 1 to calls do
    total := !total +. Gncg_util.Flt.sum row
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  check_true "sum is finite" (Float.is_finite !total);
  if per_call > 4.0 then Alcotest.failf "Flt.sum: %.1f minor words per call" per_call

(* The streamed add kernels of the dense store read two rows and
   allocate nothing but their boxed float result. *)
let test_add_kernel_allocation () =
  let r = rng 18 in
  let n = 200 in
  let d = Gncg_graph.Incr_apsp.of_graph (random_graph r n (3 * n)) in
  let against = Array.init n (fun _ -> Prng.float r 10.0) in
  let calls = 1000 in
  List.iter
    (fun (name, kernel) ->
      let total = ref (kernel 0) in
      let before = Gc.minor_words () in
      for i = 1 to calls do
        total := !total +. kernel i
      done;
      let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
      check_true (name ^ " is finite") (Float.is_finite !total);
      if per_call > 4.0 then Alcotest.failf "%s: %.1f minor words per call" name per_call)
    [
      ( "dist_sum_with_edge",
        fun i -> Gncg_graph.Incr_apsp.dist_sum_with_edge d (i mod n) ((i * 7 + 1) mod n) 1.5 );
      ( "min_sum_against",
        fun i -> Gncg_graph.Incr_apsp.min_sum_against d against (i mod n) 1.5 );
    ]

let qtest ~count name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let suites =
  [
    ( "graph.wgraph-model",
      [
        qtest ~count:300 "random edits = Map model" arb_ops prop_wgraph_model;
        case "remove the last slot" test_remove_last_slot;
        case "remove the only slot" test_remove_only_slot;
      ] );
    ( "graph.dijkstra-kernel",
      [
        qtest ~count:200 "entry points bit-equal, = floyd-warshall" QCheck.small_nat
          prop_kernel_entry_points;
        case "sssp_into allocation-free" test_sssp_into_allocation;
        case "add kernels allocation-free" test_add_kernel_allocation;
      ] );
  ]
