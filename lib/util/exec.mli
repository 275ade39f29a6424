(** Execution strategy and the one fork-join helper over OCaml 5
    domains.

    Every scan that used to ship as a sequential/parallel pair takes
    [?exec:Exec.t]: [Seq] is the sequential code path (deterministic
    evaluation order, useful under a debugger and for bit-exact float
    sums), [Par] fans out over domains.  The engine's hot loops
    (all-pairs shortest paths, per-agent cost sums, equilibrium scans,
    seed sweeps) are embarrassingly parallel: [Par] splits the index
    space into contiguous chunks, one domain per chunk, and results land
    in a pre-allocated array, so no synchronization beyond
    [Domain.join] is needed.  Callers must ensure the function they pass
    only {e reads} shared structures. *)

type t =
  | Seq
  | Par of { domains : int option }

val seq : t

val par : ?domains:int -> unit -> t

val default : t
(** [Par { domains = None }] — the historical default for call sites
    that always parallelized (the CLI verbs). *)

val of_string : string -> (t, string) result
(** ["seq"], ["par"], or ["par:K"] with [K >= 1]. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** {1 Domain count} *)

val default_domains : unit -> int
(** The process-wide override when set (see {!set_default_domains}),
    otherwise [Domain.recommended_domain_count () - 1] (never below 1):
    one hardware thread is left for the orchestrating domain — the CLI
    main loop or the serve daemon's connection threads — because a pool
    that takes every core starves the producer feeding it. *)

val set_default_domains : int option -> unit
(** Overrides the process-wide default domain count used by
    [Par { domains = None }] ([None] resets to the hardware default).
    Backs the [--domains] flag of the CLI and bench runners.
    @raise Invalid_argument on a count below 1. *)

val domain_count : t -> int
(** [Seq] → 1; [Par { domains = Some d }] → [max 1 d];
    [Par { domains = None }] → {!default_domains}[ ()]. *)

(** {1 Combinators}

    Under [Seq], or when {!domain_count} leaves one domain, these are
    the plain sequential [Array.init] / left-to-right scans.  Otherwise
    the function runs concurrently: it must be safe to call from
    several domains at once on disjoint indices.  Never more domains
    than indices are spawned. *)

val init : exec:t -> int -> (int -> 'a) -> 'a array
(** [init ~exec n f] is [Array.init n f].
    @raise Invalid_argument if [n < 0]. *)

val map_array : exec:t -> ('a -> 'b) -> 'a array -> 'b array
(** [Array.map]; same contract as {!init}. *)

val for_all : exec:t -> int -> (int -> bool) -> bool
(** [for_all ~exec n pred] is [pred 0 && ... && pred (n-1)] with an
    early exit: under [Par], once any domain finds a counterexample the
    others stop before their next index.  Unlike the sequential [&&]
    chain the set of evaluated indices is then scheduler dependent —
    [pred] must be pure.  Powers the parallel equilibrium scans.
    @raise Invalid_argument if [n < 0]. *)

val exists : exec:t -> int -> (int -> bool) -> bool
(** Dual of {!for_all}. *)

(** {1 Per-domain workspaces}

    For scans whose per-index work needs mutable scratch state that must
    not be shared across domains.  [local ()] is built once on every
    domain that takes a chunk — the calling domain included, so exactly
    once under [Seq] — and never when [n = 0]; [f] receives the
    workspace of the domain it runs on.  [local] itself may run
    concurrently on several domains, so it may only read what it
    shares. *)

val init_local : exec:t -> local:(unit -> 'w) -> int -> ('w -> int -> 'a) -> 'a array
(** {!init} with a per-domain workspace. *)

val for_all_local : exec:t -> local:(unit -> 'w) -> int -> ('w -> int -> bool) -> bool
(** {!for_all} with a per-domain workspace; same early exit. *)
