(** Indexed binary min-heap over the ids [0 .. capacity-1], the Dijkstra
    frontier.  The heap stores ids only.  Priorities live in a caller-owned
    [Float.Array.t] of keys (Dijkstra's distance row), which the heap reads
    whenever it compares two ids.  Pushing, decreasing and popping therefore
    pass only ints, and allocate nothing.

    The caller owns the keys: lower [keys.(id)] first, then call
    {!insert} / {!decrease} / {!insert_or_decrease} to restore heap order.
    Changing the key of a stored id any other way breaks the heap. *)

type t

val create : Float.Array.t -> t
(** [create keys] is an empty heap over the ids [0 .. length keys - 1],
    ordered by [keys]. *)

val capacity : t -> int
(** The id range the heap was created for. *)

val is_empty : t -> bool

val size : t -> int

val clear : t -> unit
(** Empties the heap in O(stored entries), so one heap serves many
    Dijkstra passes without reallocation. *)

val mem : t -> int -> bool
(** Whether the id is currently stored. *)

val insert : t -> int -> unit
(** [insert h id] stores [id] with priority [keys.(id)].  Raises
    [Invalid_argument] if the id is out of range or already present. *)

val decrease : t -> int -> unit
(** [decrease h id] restores heap order after the caller lowered
    [keys.(id)].  Raises [Invalid_argument] if the id is absent. *)

val insert_or_decrease : t -> int -> unit
(** {!insert} when the id is absent, {!decrease} when it is stored: the
    one call a relaxation needs after lowering [keys.(id)]. *)

val pop_min : t -> int
(** Removes and returns an id of minimum key, or [-1] when the heap is
    empty (so a Dijkstra loop needs one call per pop). *)
