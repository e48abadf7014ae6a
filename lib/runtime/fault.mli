(** Deterministic fault injection for the budget checkpoints.

    When a plan is armed, every {!Budget.check} on a limited budget
    consults it and raises the internal exhaustion signal when the plan
    says so — forcing budget exhaustion at a precise checkpoint (or at
    a configurable probability per checkpoint) so tests can exercise
    every rung of the degradation ladder, including cancellation in the
    middle of an elimination fixpoint.

    The probabilistic mode steps a private splitmix64 stream, so a
    given seed yields the same injection trace run to run; tests derive
    seeds from [Workloads.Rng.for_trial] to stay per-trial
    deterministic. The harness is domain-local, test-only state:
    production paths never arm it, {!Budget.check} only consults it on
    budgeted (limited) paths, and other domains see no plan unless one
    is handed to them explicitly through {!capture}/{!with_derived} —
    which is also how batch execution gives every query an injection
    trace of its own. *)

val arm_after : checks:int -> reason:Errors.stop_reason -> unit
(** Let the next [checks] checkpoints pass, then fail every subsequent
    one with [reason] until {!disarm}. Arms the calling domain. *)

val arm : seed:int -> p:float -> reason:Errors.stop_reason -> unit
(** Fail each checkpoint independently with probability [p],
    deterministically in [seed]. Arms the calling domain. *)

val disarm : unit -> unit

val armed : unit -> bool

val should_fail : unit -> Errors.stop_reason option
(** Consulted by {!Budget.check}; advances the calling domain's armed
    plan. *)

val with_plan : arm:(unit -> unit) -> (unit -> 'a) -> 'a
(** [with_plan ~arm f] arms, runs [f], and always disarms (even on
    exceptions). *)

type captured
(** Immutable snapshot of the calling domain's armed plan, used to
    hand deterministic per-query plans to batch tasks. *)

val capture : unit -> captured
(** Snapshot the current domain's plan (possibly "none"). *)

val with_derived : captured -> index:int -> (unit -> 'a) -> 'a
(** [with_derived c ~index f] runs [f] with the calling domain's plan
    replaced by one derived from the snapshot [c] and the query
    [index], restoring the previous plan afterwards.  A countdown plan
    restarts its countdown for every query; a probabilistic plan draws
    from a stream mixed with [index].  Both are pure functions of
    [(c, index)], so one query's injection behaviour does not depend
    on the rest of its batch. *)

(** {2 Named operation hooks}

    Deterministic fault injection for lifecycle boundaries that are not
    budget checkpoints: the serving layer consults
    [check_op "serve.accept" / "serve.read" / "serve.write" /
    "serve.handler"] around each connection operation, so tests can
    poison exactly one boundary (a torn read, a crashing handler) and
    assert the survival invariant of everything around it. Plans live in the arming
    domain's table, which that domain's threads share: a server running
    handler threads sees the plan the test armed. *)

exception Injected_fault of string
(** Raised by {!check_op} for an armed operation; carries the
    operation name. *)

val arm_op : op:string -> ?after:int -> ?times:int -> unit -> unit
(** Let the next [after] (default 0) checks of [op] pass, then fail
    the following [times] checks (default: every one until
    {!disarm_op}) with [Injected_fault op]. A plan whose failure
    count runs out disarms itself. *)

val disarm_op : op:string -> unit

val check_op : string -> unit
(** Consulted by the instrumented boundary; raises {!Injected_fault}
    when that operation's armed plan says so, advancing the plan. *)

val with_op : op:string -> ?after:int -> ?times:int -> (unit -> 'a) -> 'a
(** Arm [op], run, always disarm (even on exceptions). *)
