(** Greedy (single-edge) responses: the move set underlying Greedy
    Equilibria and Add-only Equilibria.

    Every function accepts an optional pre-built network [?graph] of the
    current profile: scans that evaluate many candidates (equilibrium
    checks, dynamics steps) build [Network.graph host s] once and thread
    it through, halving the per-scan Dijkstra count. *)

val move_gain :
  ?graph:Gncg_graph.Wgraph.t -> Host.t -> Strategy.t -> agent:int -> Move.t -> float
(** Cost decrease of a move ([> 0] means improving). *)

val best_move :
  ?kinds:[ `Add | `Delete | `Swap ] list ->
  ?graph:Gncg_graph.Wgraph.t ->
  Host.t ->
  Strategy.t ->
  agent:int ->
  (Move.t * float) option
(** The single-edge move with the largest strict improvement for the agent,
    if any (tolerance-guarded).  [kinds] restricts the move set: use
    [[`Add]] for add-only dynamics. *)

val best_single_move_cost :
  ?kinds:[ `Add | `Delete | `Swap ] list ->
  ?graph:Gncg_graph.Wgraph.t ->
  Host.t ->
  Strategy.t ->
  agent:int ->
  float
(** The lowest cost the agent can reach with at most one single-edge move
    (her current cost when nothing improves).  Finite whenever the best
    move connects the agent to everyone, also for an agent that is
    disconnected now. *)

val cost_after_move :
  Host.t -> Strategy.t -> agent:int -> current:float -> Move.t * float -> float
(** [cost_after_move host s ~agent ~current (mv, gain)]: the agent's cost
    after the improving move [mv] of gain [gain], given her [current]
    cost.  That is [current -. gain], except for a move that connects a
    disconnected agent (infinite gain), whose cost after is computed
    from the moved profile. *)
