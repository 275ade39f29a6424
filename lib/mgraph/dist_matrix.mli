(** Dense all-pairs distance matrices with exact O(n²) edge-insertion
    updates.

    The social-optimum local search evaluates hundreds of candidate edge
    additions per step; re-running all-pairs Dijkstra for each is wasteful
    when the insertion update
    [d'(x,y) = min(d(x,y), d(x,u)+w+d(v,y), d(x,v)+w+d(u,y))]
    is exact.  (Deletions can only be handled by recomputation.)

    Storage is one flat row-major unboxed [floatarray] of length n² —
    the relaxation loops stream a single contiguous buffer, and the row
    snapshots an update needs are preallocated workspaces, so
    [add_edge] and [total_with_edge_added] allocate nothing.

    {!addition_bound} lets the optimizer skip the O(n²) what-if of a
    candidate whose gain provably cannot win. *)

type t

val of_graph : Wgraph.t -> t
(** All-pairs distances of the graph (infinity across components). *)

val recompute : t -> Wgraph.t -> unit
(** Overwrites the matrix with the all-pairs distances of a graph of the
    same size: {!of_graph} without allocating the n² store. *)

val of_matrix : float array array -> t
(** Adopts (copies) an existing distance matrix; trusted as-is. *)

val size : t -> int

val distance : t -> int -> int -> float

val total : t -> float
(** Sum over ordered pairs; infinite if any pair is disconnected. *)

val row_total : t -> int -> float
(** [Flt.sum] of row [u], bit for bit: on a matrix built by {!of_graph}
    it equals [Flt.sum (Dijkstra.sssp g u)]. *)

val addition_bound : t -> int -> int -> float -> float
(** [addition_bound t u v w] bounds [total t - total_with_edge_added t u v w]
    from above in O(n), reading only rows [u] and [v].  With
    [a_x = d(v,x) - d(u,x) - w], [X = {x : a_x > 0}],
    [b_x = d(u,x) - d(v,x) - w] and [Y = {x : b_x > 0}], the bound is
    [2 min(|Y| Σ_X a, |X| Σ_Y b)] (triangle inequality on the matrix's
    distances).  Infinite when an entry read is infinite. *)

val copy : t -> t

val add_edge : t -> int -> int -> float -> unit
(** In-place exact update for inserting edge [(u,v)] of weight [w >= 0].
    A no-op when the new edge cannot improve any distance. *)

val with_edge_added : t -> int -> int -> float -> t
(** Functional version of {!add_edge}. *)

val total_with_edge_added : t -> int -> int -> float -> float
(** [total (with_edge_added m u v w)] without materializing the updated
    matrix — the O(n²) inner loop of the optimizer. *)
