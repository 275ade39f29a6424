(** Social optimum networks.

    Finding OPT is a variant of the classical Network Design Problem and is
    suspected NP-hard for all model variants except the 1-2–GNCG and the
    T–GNCG (Sec. 1.2), so exact computation enumerates subgraphs and is
    limited to tiny instances; the named polynomial cases have dedicated
    solvers (Thm. 6, Cor. 3), and a heuristic covers the rest. *)

val exact_small : ?max_edges:int -> Host.t -> Gncg_graph.Wgraph.t * float
(** Optimal network by enumeration over all subsets of the finite-weight
    host edges.  Refuses instances with more than [max_edges] (default 16)
    candidate edges. *)

val exact_bnb : ?max_edges:int -> Host.t -> Gncg_graph.Wgraph.t * float
(** Optimal network by branch-and-bound over edge inclusion, warm-started
    by the heuristic: the relaxation keeping all undecided edges lower
    bounds the distance cost, the decided edges lower bound the building
    cost.  Handles up to [max_edges] (default 28, i.e. n = 8) candidate
    edges in reasonable time. *)

val algorithm_one : Host.t -> Gncg_graph.Wgraph.t * float
(** Algorithm 1 of the paper: for a 1-2 host with α <= 1, start from the
    complete host graph and delete the 2-edge of every 1-1-2 triangle.
    Raises [Invalid_argument] on non-1-2 hosts. *)

val tree_optimum : Gncg_metric.Tree_metric.tree -> Host.t -> Gncg_graph.Wgraph.t * float
(** Cor. 3: on the host defined by tree [T], the tree itself is the social
    optimum (it is the cheapest network preserving all host distances). *)

val greedy_heuristic : Host.t -> Gncg_graph.Wgraph.t * float
(** MST seed, then steepest local search over single-edge additions and
    deletions of the network.  Only candidates that can win are
    evaluated in full:
    - an addition that shortens no distance ([w >= d(u,v)]) costs the
      matrix total, computed once per scan;
    - an addition is skipped when
      [α·w - Dist_matrix.addition_bound - slack] cannot beat the best
      delta so far (O(n) per candidate; the slack covers rounding, and
      infinite distances disable the skip); the others pay the exact
      O(n²) insertion total;
    - a deletion recomputes by Dijkstra only the rows on which the edge
      is tight ({!Gncg_graph.Dijkstra.tight}) and takes every
      other row's sum from the phase's distance matrix, summing in
      source order, so its cost is bit-identical to
      {!Cost.network_social_cost}.
    The moves, the network and the cost are exactly those of the
    unpruned search. *)

val anneal :
  ?seed:int -> ?steps:int -> ?t0:float -> ?cooling:float -> Host.t -> Gncg_graph.Wgraph.t * float
(** Simulated annealing over single-edge toggles, seeded by
    {!greedy_heuristic}; returns the best network seen.  Escapes the local
    optima the steepest-descent heuristic can be stuck in. *)

val best_known : Host.t -> Gncg_graph.Wgraph.t * float
(** Exact (branch-and-bound) up to 7 agents, otherwise the heuristic. *)

val complete_host_cost : Host.t -> float
(** Social cost of buying every finite edge — the trivial upper bound used
    in Thm. 8. *)
