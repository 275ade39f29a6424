let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* statistics.quantiles(data, n=4, method='exclusive'), transcribed:
   positions i·(len+1)/4 clamped to [1, len-1], interpolated in exact
   integer steps of 1/4. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

(* Nearest rank: the k-th smallest of n with k = ceil(p·n); the epsilon
   keeps 0.99 × 1000 at rank 990 despite binary rounding. *)
let rank p n = max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

let beyond p n = n - rank p n

let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 || beyond p n < 10 then None else Some a.(rank p n - 1)
