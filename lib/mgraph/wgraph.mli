(** Undirected weighted sparse graphs on vertices [0 .. n-1].

    This is the substrate on which built networks [G(s)] live.  Each vertex
    [u] holds flat slots: an [int array] of neighbour ids and a
    [Float.Array.t] of edge weights, of which the first [degree g u] entries
    are live.  Adding an edge appends a slot at both endpoints (amortised
    O(1)); removing one moves each endpoint's last slot into the hole.
    Membership ([has_edge], [weight], and the lookup inside [add_edge] /
    [remove_edge]) scans the live slots of the endpoint with the lower
    degree: O(min(deg u, deg v)).

    Iteration order is slot order: a vertex's neighbours in the order their
    edges were added, except that a removal moves the last neighbour into the
    freed slot.  [iter_edges] / [edges] visit [u] ascending and, for each
    [u], its slots in that order.  The order is deterministic given the
    sequence of edits, but callers should not rely on anything beyond that.

    Parallel edges are not representable: adding an existing edge overwrites
    its weight (in place; the order is unchanged).  Self-loops are
    rejected. *)

type t

val create : int -> t
(** [create n] is the empty graph on [n] vertices. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val add_edge : t -> int -> int -> float -> unit
(** [add_edge g u v w] inserts (or overwrites) the undirected edge [(u,v)]
    with weight [w >= 0].  Raises [Invalid_argument] on self-loops,
    out-of-range vertices or negative weights. *)

val remove_edge : t -> int -> int -> unit
(** Removes the edge if present; no-op otherwise. *)

val has_edge : t -> int -> int -> bool

val weight : t -> int -> int -> float option
(** Weight of the edge [(u,v)] if present. *)

val iter_neighbors : t -> int -> (int -> float -> unit) -> unit
(** Adjacent vertices with edge weights, in slot order. *)

val degree : t -> int -> int
(** Number of live slots of the vertex. *)

val slot_ids : t -> int -> int array
(** [slot_ids g u] is [u]'s neighbour array itself, not a copy: entries
    [0 .. degree g u - 1] are live, later ones are spare capacity.  Read it,
    never write it.  Together with {!slot_weights} it is the allocation-free
    view {!Dijkstra}'s kernel walks.  Both arrays are valid only until the
    next [add_edge] or [remove_edge] touching [u]: an insertion may move
    them to a larger array, and a removal reorders the live slots.  The
    vertex is not range-checked. *)

val slot_weights : t -> int -> Float.Array.t
(** [slot_weights g u] is the weight array parallel to [slot_ids g u]: slot
    [i] is the weight of the edge to [(slot_ids g u).(i)].  Same rules. *)

val edges : t -> (int * int * float) list
(** Every edge once, with [u < v], in the reverse of [iter_edges]' order. *)

val iter_edges : t -> (int -> int -> float -> unit) -> unit
(** Iterate every edge once with [u < v]: [u] ascending, then [u]'s slot
    order. *)

val total_weight : t -> float
(** Sum of all edge weights, added in [iter_edges]' order. *)

val copy : t -> t
(** Independent copy with the same slot order, trimmed to the live
    slots. *)

val of_edges : int -> (int * int * float) list -> t
(** [of_edges n es] builds a graph from an edge list. *)

val equal : t -> t -> bool
(** Same vertex count and same edge set with equal weights. *)

val pp : Format.formatter -> t -> unit
