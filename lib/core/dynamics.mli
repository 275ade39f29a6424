(** Response dynamics.

    Agents move one at a time in an activation order fixed by the
    scheduler, each move made on the profile left by the one before.  The
    paper shows these dynamics need not converge (no finite improvement
    property — Cor. 1, Thms. 14, 17): the loop therefore detects both
    convergence and revisited profiles (cycles). *)

type rule =
  | Best_response  (** exact best response (branch-and-bound) *)
  | Greedy_response  (** best single add/delete/swap *)
  | Add_only  (** best single add *)
  | Random_improving of Gncg_util.Prng.t
      (** a uniformly random improving single-edge move — the most
          permissive improving dynamics, used when hunting for the
          improving-move cycles of Thms. 14 and 17 *)

type scheduler =
  | Round_robin
  | Random_order of Gncg_util.Prng.t
      (** a fresh uniformly random agent each activation *)

type step = { mover : int; before_cost : float; after_cost : float }

type outcome =
  | Converged of { profile : Strategy.t; rounds : int; steps : step list }
      (** No agent can improve (w.r.t. the rule): a NE / GE / AE. *)
  | Cycle of { profiles : Strategy.t list; steps : step list }
      (** The profile sequence revisited a previous state, certifying an
          improving-move cycle in the sense of the paper (a sequence of
          improving moves starting and ending at the same strategy
          vector) — every recorded transition strictly improves its mover,
          so a revisit is a certificate under any scheduler.  [profiles]
          lists the cycle states in order; the first and last entries are
          equal, and no other state repeats.  Revisits are found by a
          63-bit profile fingerprint and confirmed with
          {!Strategy.equal}, so a fingerprint collision can never produce
          a false [Cycle]. *)
  | Out_of_steps of { profile : Strategy.t; steps : step list }

(** The engine configuration: what used to be a sprawl of optional
    arguments on [run].  Build one with {!Config.make}, override fields
    with [{ cfg with ... }]. *)
module Config : sig
  type t = {
    rule : rule;
    scheduler : scheduler;
    max_steps : int;
    evaluator : Evaluator.t;
  }

  val make : ?max_steps:int -> ?evaluator:Evaluator.t -> rule -> scheduler -> t
  (** Defaults: [max_steps] 10_000, [evaluator] [`Reference]. *)
end

val run : Config.t -> Host.t -> Strategy.t -> outcome
(** Runs until convergence, cycle detection or [Config.max_steps] agent
    activations.  Convergence means every agent has been observed idle
    since the last accepted move.  A cycle is a revisited profile: every
    visited profile is kept under its fingerprint (the XOR of a fixed
    integer mix over all owned pairs), updated after each move from the
    mover's old and new strategy sets in O(deg) and confirmed on a hit
    with {!Strategy.equal}; besides the evaluation, a move thus costs
    O(deg) plus one hash-table lookup, not O(profile).
    [Config.evaluator] selects the
    single-move engine for [Greedy_response]/[Add_only]:

    - [`Reference] (default): rebuild + Dijkstra per candidate — obviously
      correct;
    - [`Fast] / [`Stateless]: the stateless incremental evaluation of
      [Fast_response];
    - [`Incremental]: one [Net_state] threaded through the whole run — the
      network and its full distance matrix are maintained across steps, so
      a step costs O(n²) instead of a rebuild plus Dijkstra per candidate.
      After an accepted move the engine drains the state's change report
      and preserves the idle verdict of every agent it can prove
      unaffected (row-local verdict, own row unchanged, no incident
      strategy pair modified, no changed row among its addable targets) —
      provably byte-identical to re-evaluating everyone, and the reason a
      step no longer costs a full rescan.

    All evaluators are semantically equivalent (property-tested);
    tie-breaking may differ within float tolerance.  Evaluations, accepted
    moves and preserved idle verdicts are counted on the
    [dynamics.evaluations], [dynamics.moves] and [dynamics.skips]
    counters of [Gncg_obs.Metric] (enabled via [--profile] /
    [Gncg_obs.Obs.set_profiling]). *)

val deviation :
  ?evaluator:Evaluator.t ->
  rule ->
  Host.t ->
  Strategy.t ->
  int ->
  (Strategy.t * float) option
(** One improving deviation for an agent under the rule, with its gain:
    the building block of [run], exposed for tests and tools.  Stateless:
    [`Incremental] is evaluated as [`Stateless] here (the threaded state
    only exists inside [run]) and the degradation is counted on the
    [dynamics.evaluator_degradations] counter — pass [`Stateless] to opt
    in explicitly. *)
