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

(* The one chunking loop behind every combinator: [0, n) splits into
   at most [domain_count exec] contiguous non-empty chunks.  Chunk 0 runs
   on the calling domain, every other chunk on a domain of its own, and
   [local ()] is built once per chunk on the domain that runs it.
   Returns the chunk results in index order (none when [n = 0]). *)
let chunks ~exec ~local n body =
  let domains = max 1 (min (domain_count exec) n) in
  let chunk = max 1 ((n + domains - 1) / domains) in
  let chunks = (n + chunk - 1) / chunk in
  let run k () = body (local ()) (k * chunk) (min n ((k + 1) * chunk)) in
  if chunks = 0 then []
  else begin
    let handles = List.init (chunks - 1) (fun k -> Domain.spawn (run (k + 1))) in
    (* Join the spawned domains even when chunk 0 raises. *)
    let first = match run 0 () with r -> Ok r | exception e -> Error e in
    let rest = List.map Domain.join handles in
    match first with Ok r -> r :: rest | Error e -> raise e
  end

let init_local ~exec ~local n f =
  if n < 0 then invalid_arg "Exec.init";
  match chunks ~exec ~local n (fun w lo hi -> Array.init (hi - lo) (fun i -> f w (lo + i))) with
  | [ a ] -> a
  | parts -> Array.concat parts

let init ~exec n f = init_local ~exec ~local:ignore n (fun () i -> f i)

let map_array ~exec f a = init ~exec (Array.length a) (fun i -> f a.(i))

let for_all_local ~exec ~local n pred =
  if n < 0 then invalid_arg "Exec.for_all";
  (* Early exit: a counterexample found by any domain stops the others
     at their next index. *)
  let failed = Atomic.make false in
  ignore
    (chunks ~exec ~local n (fun w lo hi ->
         let i = ref lo in
         while (not (Atomic.get failed)) && !i < hi do
           if not (pred w !i) then Atomic.set failed true;
           incr i
         done));
  not (Atomic.get failed)

let for_all ~exec n pred = for_all_local ~exec ~local:ignore n (fun () i -> pred i)

let exists ~exec n pred = not (for_all ~exec n (fun i -> not (pred i)))
