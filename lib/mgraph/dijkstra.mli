(** Shortest paths on weighted graphs (non-negative weights).

    Distances use [Float.infinity] for unreachable vertices, matching the
    paper's convention that a disconnected agent has infinite distance
    cost.

    Every entry point runs one kernel: Dijkstra over {!Wgraph}'s flat
    slots, with a {!workspace} holding an unboxed distance row and a
    {!Binary_heap} keyed by that row.  The entry points differ only in where
    the row is copied to and whether parents or a limit are tracked.  The
    distances themselves do not depend on neighbour or heap order: each is
    the minimum over the vertex's neighbours [u] of [d(u) +. w(u,v)]. *)

val sssp : Wgraph.t -> int -> float array
(** [sssp g s] is the array of shortest-path distances from [s].  It
    allocates a fresh workspace; repeated callers should hold one and use
    {!sssp_into}. *)

type workspace
(** The kernel's state: a distance row and a heap over it, allocated once
    for the lifetime of an engine instead of once per pass.  Not
    thread-safe; each domain needs its own. *)

val workspace : int -> workspace
(** [workspace n] serves graphs of up to [n] vertices. *)

val sssp_into : workspace -> Wgraph.t -> int -> float array -> unit
(** [sssp_into ws g s row] writes the distances from [s] into
    [row.(0 .. n-1)] (longer rows keep their tail) and allocates nothing.
    Raises [Invalid_argument] when the workspace or the row is smaller
    than the graph. *)

val sssp_flat_into : workspace -> Wgraph.t -> int -> Float.Array.t -> int -> unit
(** [sssp_flat_into ws g s d off] writes the distances from [s] into the
    unboxed slice [d.[off .. off+n-1]] — the row-update primitive of the
    flat matrices in {!Dist_matrix} / {!Incr_apsp}. *)

val sssp_with_parents : Wgraph.t -> int -> float array * int array
(** Also returns a shortest-path-tree parent array ([-1] for the source and
    unreachable vertices).  Among equally short paths the parent depends
    on slot order. *)

val sssp_bounded : Wgraph.t -> int -> float -> float array
(** [sssp_bounded g s limit] stops settling vertices once the frontier
    exceeds [limit]; distances beyond it are reported as infinity.  Used by
    the greedy spanner where only "is d(u,v) <= t*w" matters. *)

val distance : Wgraph.t -> int -> int -> float

val apsp : ?exec:Gncg_util.Exec.t -> Wgraph.t -> float array array
(** All-pairs shortest paths by repeated Dijkstra: O(n (m + n log n)).
    Defaults to [Exec.Seq]; under [Par] the sources are split across
    OCaml 5 domains (the graph must not be mutated concurrently), with
    an identical result. *)

val path : Wgraph.t -> int -> int -> int list option
(** Vertex sequence of one shortest path from [u] to [v], inclusive. *)

val eccentricity : Wgraph.t -> int -> float

val eccentricities : ?domains:int -> Wgraph.t -> float array
(** Eccentricity of every vertex from one all-pairs sweep; the sources are
    split across domains on graphs large enough to amortize the spawn
    cost. *)

val diameter : ?domains:int -> Wgraph.t -> float
(** Infinite when the graph is disconnected, 0 for n <= 1.  Runs the
    eccentricity sweep of {!eccentricities} (multicore on large graphs)
    instead of n sequential SSSP calls. *)

val tight : float -> float -> float -> bool
(** [tight du dv w]: given the distances [du], [dv] from one source to
    the endpoints of an edge of weight [w], may a shortest path from
    that source cross the edge?  True when [du + w = dv] or
    [dv + w = du] within [Flt.eps].  The tolerance only
    over-approximates: rows built by incremental insertions associate
    their sums differently than Dijkstra would, so a genuinely used edge
    can be off by ulps.  When it is false, deleting the edge leaves the
    source's distances unchanged. *)
