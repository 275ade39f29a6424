type span = { id : int; parent : int; req : int; name : string; start : float; stop : float }

let on = ref false
let next = Atomic.make 1
let lock = Mutex.create ()
let recorded = ref []

let enable () = on := true

let with_span ?(parent = 0) ?(req = 0) name f =
  if not !on then f 0
  else begin
    let id = Atomic.fetch_and_add next 1 in
    let start = Unix.gettimeofday () in
    let finish () =
      let s = { id; parent; req; name; start; stop = Unix.gettimeofday () } in
      Mutex.protect lock (fun () -> recorded := s :: !recorded)
    in
    match f id with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let spans () =
  List.sort (fun a b -> Float.compare a.start b.start) (Mutex.protect lock (fun () -> !recorded))

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Length of the union of the children's intervals clipped to the parent. *)
let covered parent children =
  let clipped =
    List.filter_map
      (fun c ->
        let a = Float.max c.start parent.start and b = Float.min c.stop parent.stop in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let per_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = s.stop -. s.start -. covered s (Hashtbl.find_all children s.id) in
      let l = layer s.name in
      Hashtbl.replace per_layer l
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt per_layer l)))
    spans;
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) per_layer [] |> List.sort compare

let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f}\n" s.id
        s.parent s.req s.name s.start s.stop)
    spans;
  close_out oc
