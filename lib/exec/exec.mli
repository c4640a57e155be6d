(** Deterministic domain-pool executor.

    Fans independent tasks across OCaml 5 domains while keeping results
    bit-identical and order-stable: every task writes into a pre-indexed
    slot, so the output array is a pure function of the input array — the
    job count only changes wall-clock time, never results. All simulator
    runs are pure functions of their seed (the test suite pins this), which
    is what makes the sweep loops in [bench/] and the fuzz soak batch loop
    embarrassingly parallel.

    [jobs = 1] bypasses the pool entirely and evaluates inline, reproducing
    the serial behaviour exactly (including stopping at the first
    exception). With [jobs > 1] the exception of the lowest-indexed failing
    task is re-raised in the caller, with its backtrace — still
    deterministic. Once a task has failed, tasks at {e higher} indices that
    have not started yet are cancelled (they can never win the
    lowest-index race), so a failing sweep aborts quickly instead of
    grinding through the remaining work; tasks at lower indices always
    still run. Callers that want every task attempted and failures
    contained should use [Supervise.map], which wraps each task so none
    raises into the pool. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count], clamped to at least 1. *)

val set_default_jobs : int -> unit
(** Set the pool width used when [?jobs] is omitted. [0] restores the
    recommended count; negative values are rejected. Typically wired to a
    [--jobs N] command-line flag once at startup. *)

val default_jobs : unit -> int
(** The current default pool width ({!recommended_jobs} unless overridden
    by {!set_default_jobs}). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f xs] is [Array.map f xs] computed by up to [jobs] domains
    (the calling domain participates, so at most [jobs - 1] are spawned).
    Results land in input order regardless of completion order. *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Like {!map}, passing each task its index. *)
