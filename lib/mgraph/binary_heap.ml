type t = {
  keys : Float.Array.t;     (* id -> priority, owned by the caller *)
  ids : int array;          (* heap slots -> id *)
  pos : int array;          (* id -> heap slot, or -1 *)
  mutable size : int;
}

let create keys =
  let capacity = Float.Array.length keys in
  { keys; ids = Array.make capacity (-1); pos = Array.make capacity (-1); size = 0 }

let capacity h = Array.length h.pos

let is_empty h = h.size = 0

let size h = h.size

let clear h =
  (* Only the stored ids have a live [pos] entry: O(size), not O(capacity). *)
  for i = 0 to h.size - 1 do
    h.pos.(h.ids.(i)) <- -1
  done;
  h.size <- 0

let mem h id = id >= 0 && id < Array.length h.pos && h.pos.(id) >= 0

let key h id = Float.Array.unsafe_get h.keys id

(* Both sifts move a hole instead of swapping: [id] is written once, at
   its final slot. *)
let sift_up h i id =
  let k = key h id in
  let i = ref i in
  while
    !i > 0
    && k < key h (Array.unsafe_get h.ids ((!i - 1) / 2))
  do
    let p = (!i - 1) / 2 in
    let pid = Array.unsafe_get h.ids p in
    Array.unsafe_set h.ids !i pid;
    Array.unsafe_set h.pos pid !i;
    i := p
  done;
  Array.unsafe_set h.ids !i id;
  Array.unsafe_set h.pos id !i

let sift_down h i id =
  let k = key h id in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= h.size then moving := false
    else begin
      let r = l + 1 in
      let c =
        if r < h.size && key h (Array.unsafe_get h.ids r) < key h (Array.unsafe_get h.ids l)
        then r
        else l
      in
      let cid = Array.unsafe_get h.ids c in
      if key h cid < k then begin
        Array.unsafe_set h.ids !i cid;
        Array.unsafe_set h.pos cid !i;
        i := c
      end
      else moving := false
    end
  done;
  Array.unsafe_set h.ids !i id;
  Array.unsafe_set h.pos id !i

let insert h id =
  if id < 0 || id >= Array.length h.pos then invalid_arg "Binary_heap.insert: id out of range";
  if h.pos.(id) >= 0 then invalid_arg "Binary_heap.insert: duplicate id";
  h.size <- h.size + 1;
  sift_up h (h.size - 1) id

let decrease h id =
  if not (mem h id) then invalid_arg "Binary_heap.decrease: absent id";
  sift_up h h.pos.(id) id

let insert_or_decrease h id = if mem h id then sift_up h h.pos.(id) id else insert h id

let pop_min h =
  if h.size = 0 then -1
  else begin
    let top = h.ids.(0) in
    h.pos.(top) <- -1;
    h.size <- h.size - 1;
    if h.size > 0 then sift_down h 0 h.ids.(h.size);
    top
  end
