type t =
  | Seq
  | Par of { domains : int option }

let seq = Seq

let par ?domains () = Par { domains }

let default = Par { domains = None }

let of_string s =
  match s with
  | "seq" -> Ok Seq
  | "par" -> Ok (Par { domains = None })
  | _ ->
    (match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "par" -> (
      let k = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt k with
      | Some d when d >= 1 -> Ok (Par { domains = Some d })
      | _ -> Error (Printf.sprintf "invalid domain count %S (want par:K, K >= 1)" k))
    | _ -> Error (Printf.sprintf "invalid execution strategy %S (want seq, par or par:K)" s))

let to_string = function
  | Seq -> "seq"
  | Par { domains = None } -> "par"
  | Par { domains = Some d } -> Printf.sprintf "par:%d" d

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* 0 = no override: fall back to the hardware-recommended count. *)
let override = Atomic.make 0

let set_default_domains = function
  | None -> Atomic.set override 0
  | Some d ->
    if d < 1 then invalid_arg "Exec.set_default_domains";
    Atomic.set override d

let default_domains () =
  let o = Atomic.get override in
  if o > 0 then o
  else
    (* Leave one hardware thread for the orchestrating domain (the CLI
       main loop, the serve daemon's accept/connection threads): a pool
       that takes every core starves the producer feeding it. *)
    max 1 (Domain.recommended_domain_count () - 1)

let domain_count = function
  | Seq -> 1
  | Par { domains = Some d } -> max 1 d
  | Par { domains = None } -> default_domains ()

let init ~exec n f =
  if n < 0 then invalid_arg "Exec.init";
  let domains = min (domain_count exec) n in
  if domains <= 1 then Array.init n f
  else begin
    (* First cell computed on the main domain so the result array can be
       allocated without an option layer. *)
    let first = f 0 in
    let result = Array.make n first in
    let chunk = (n + domains - 1) / domains in
    let worker k () =
      let lo = max 1 (k * chunk) in
      let hi = min n ((k + 1) * chunk) - 1 in
      for i = lo to hi do
        result.(i) <- f i
      done
    in
    let handles = List.init domains (fun k -> Domain.spawn (worker k)) in
    List.iter Domain.join handles;
    result
  end

let map_array ~exec f a = init ~exec (Array.length a) (fun i -> f a.(i))

let for_all ~exec n pred =
  if n < 0 then invalid_arg "Exec.for_all";
  let domains = min (domain_count exec) n in
  if domains <= 1 then begin
    let rec go i = i >= n || (pred i && go (i + 1)) in
    go 0
  end
  else begin
    (* Early exit: a counterexample found by any domain stops the
       others at their next index. *)
    let failed = Atomic.make false in
    let chunk = (n + domains - 1) / domains in
    let worker k () =
      let lo = k * chunk in
      let hi = min n ((k + 1) * chunk) - 1 in
      let i = ref lo in
      while (not (Atomic.get failed)) && !i <= hi do
        if not (pred !i) then Atomic.set failed true;
        incr i
      done
    in
    let handles = List.init (domains - 1) (fun k -> Domain.spawn (worker (k + 1))) in
    worker 0 ();
    List.iter Domain.join handles;
    not (Atomic.get failed)
  end

let exists ~exec n pred = not (for_all ~exec n (fun i -> not (pred i)))
