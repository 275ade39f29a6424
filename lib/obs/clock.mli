(** Nanosecond clock for span timings and time-based decisions.

    The default reads [clock_gettime(CLOCK_MONOTONIC)]: it never steps
    backwards when the wall clock is adjusted (NTP, a manual [date]), so
    durations, budgets, heartbeat deadlines and liveness checks stay
    sound.  Its origin is arbitrary but shared by every process on the
    machine, so only differences are meaningful.  Tests inject a
    deterministic clock through {!set} to make durations reproducible. *)

val now_ns : unit -> float
(** Current time in nanoseconds.  Only differences are meaningful. *)

val set : (unit -> float) option -> unit
(** Overrides the clock ([None] restores the default).  Test hook. *)
