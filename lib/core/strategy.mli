(** Strategy profiles.

    Agent [u]'s strategy is the set [S_u] of agents towards which [u] buys
    an edge.  A profile is the vector of all strategies; it determines the
    built network [G(s)].  Both endpoints may buy the same edge — the graph
    then contains it once but both pay, exactly as in the paper. *)

module ISet : Set.S with type elt = int

type t
(** Immutable strategy profile. *)

val empty : int -> t
(** No agent buys anything. *)

val n : t -> int

val strategy : t -> int -> ISet.t
(** [S_u]. *)

val of_lists : int -> (int * int list) list -> t
(** [of_lists n assoc] builds a profile from per-agent target lists; agents
    not listed buy nothing.  Raises on self-purchases and out-of-range
    targets. *)

val with_strategy : t -> int -> ISet.t -> t
(** Functional update of one agent's strategy. *)

val buy : t -> int -> int -> t
(** [buy s u v] adds [v] to [S_u]. *)

val sell : t -> int -> int -> t
(** Removes [v] from [S_u]. *)

val owns : t -> int -> int -> bool
(** Whether [v ∈ S_u]. *)

val edge_in_network : t -> int -> int -> bool
(** Whether the edge exists in [G(s)]: bought in either direction. *)

val owned_edges : t -> (int * int) list
(** All (owner, target) purchases. *)

val out_degree : t -> int -> int

val double_bought : t -> (int * int) list
(** Pairs bought by both endpoints, with [u < v] — never present in
    equilibrium (footnote 1 of the paper). *)

val canonical_key : t -> string
(** Injective serialization, for outcome digests and tests. *)

val equal : t -> t -> bool

val of_tree_leaf_owned : Gncg_graph.Wgraph.t -> int -> t
(** Orientation of a tree/forest: every edge is bought by the endpoint
    farther from the given root (the root owns nothing). *)

val of_graph_arbitrary_owners : Gncg_graph.Wgraph.t -> t
(** Each edge bought by its smaller endpoint. *)

val star : int -> center:int -> t
(** The center buys an edge to every other agent. *)

val pp : Format.formatter -> t -> unit
