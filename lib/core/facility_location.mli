(** Uncapacitated facility location.

    Theorem 3 of the paper reduces an agent's strategy choice to an
    uncapacitated metric facility location (UMFL) instance: facilities are
    the other agents, opening facility [f] costs [α·w(u,f)] (0 when [f]
    already buys an edge to [u]), and serving client [j] from [f] costs
    [w(u,f) + d_{G'}(f,j)].  We use the reduction in both directions:

    - the {!solve_exact} branch-and-bound yields *exact best responses* for
      the sizes used in tests and experiments;
    - the {!local_search} of Arya et al. (locality gap 3) yields
      polynomial-time responses whose stability corresponds to the 3-NE
      guarantee of Thm. 3. *)

type instance = {
  open_cost : float array;  (** per facility; may be 0 or infinite *)
  service : float array array;
      (** [service.(f).(c)]: cost of serving client [c] from facility [f];
          may be infinite *)
  forced_open : bool array;  (** facilities that every solution must open *)
}

val make :
  ?forced_open:bool array ->
  open_cost:float array ->
  service:float array array ->
  unit ->
  instance
(** Validates dimensions; [forced_open] defaults to all-false. *)

val num_facilities : instance -> int

val num_clients : instance -> int

val cost : instance -> bool array -> float
(** Total cost of a set of open facilities: opening costs plus each
    client's distance to its closest open facility ([infinity] when a
    client is unservable or a forced facility is closed). *)

val solve_exact : instance -> bool array * float
(** Optimal solution by branch-and-bound over facilities, warm-started by
    the local search.  Exponential worst case; intended for instances with
    at most ~25 free facilities. *)

val local_search : instance -> bool array * float
(** Arya et al. add/drop/swap local search from the all-open solution; the
    result cannot be improved by opening, closing or swapping a single
    facility (a 3-approximation on metric instances).

    A step costs O(facilities·clients): the assignment of the new set, the
    open gains, one pass over the clients for all close gains and one per
    closed facility for the swap bounds of every (open, closed) pair; then
    O(1) per pair, and O(clients) only for a swap the bound cannot rule
    out — on converged instances almost none (see {!swap_check}).  The
    pruning is exact: the open set, the cost and the sequence of moves are
    those of pricing every swap. *)

val improve_step : instance -> bool array -> (bool array * float) option
(** One improving open/close/swap step if any exists (tolerance-guarded).
    One scan picks it — opens and closes in facility order, then swaps
    ordered by the facility closed, then the one opened — and keeps a
    candidate only when it beats the best so far by more than the
    tolerance.  The choice is that of pricing every swap: the swap bound
    skips only pairs the scan would not keep. *)

val swap_check : instance -> bool array -> f_out:int -> f_in:int -> float * (float * float) option
(** [swap_check inst set ~f_out ~f_in] is the exact cost change of closing
    the open [f_out] and opening the closed [f_in], and, when the open and
    close gains, the overlap term and both opening costs are finite, the
    bound [open_gain f_in + close_gain f_out - extra] the local search
    prunes with and the slack it allows for rounding: [|exact - bound| <=
    slack].  [improve_step] prices a swap only when [bound - slack] could
    still beat the best move found so far. *)
