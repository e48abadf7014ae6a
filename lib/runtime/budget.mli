(** Cooperative resource budgets for the solving stack.

    A budget carries a wall-clock deadline and a fuel counter whose
    unit is one solver step — an elimination-pass candidate in
    [Cover], a DP subset expansion in [Dreyfus_wagner], a candidate
    subset in [Brute], a frontier expansion in [Kbest]. Solvers call
    {!check} at those points; exhaustion raises the internal
    {!Exhausted} signal, which the runtime boundary ([Minconn.solve],
    {!protect}) catches and converts into typed errors or a
    degradation step. The signal is an implementation detail: no
    public API ever lets it escape to callers.

    The un-budgeted fast path is a single branch on an immutable flag
    ({!unlimited} is never mutated), so threading checks through hot
    loops costs <3% when no budget is armed (measured by the bench
    [runtime] section). *)

exception Exhausted of Errors.stop_reason
(** Internal signal. Catch only at the runtime boundary, via
    {!protect} or the [Minconn] ladder — never let it reach library
    users. *)

type t

val unlimited : t
(** No deadline, no fuel cap; {!check} is a single load+branch. The
    default everywhere a [?budget] argument is omitted. *)

val make : ?timeout_ms:int -> ?fuel:int -> unit -> t
(** A budget whose deadline is [timeout_ms] from now and/or whose fuel
    is [fuel] solver steps. Omitted components are unbounded (but the
    result is still a limited budget that consults the {!Fault}
    harness, which is what tests want). *)

val check : t -> unit
(** One cooperative checkpoint: spends one fuel unit, polls the wall
    clock every few dozen checks, consults the armed {!Fault} plan.
    Raises {!Exhausted} when the budget is gone. No-op on
    {!unlimited}. *)

val spent : t -> int
(** Checkpoints passed so far (diagnostics). *)

val protect : t -> (unit -> 'a) -> ('a, Errors.stop_reason) result
(** Run a thunk at the runtime boundary, converting {!Exhausted} into
    [Error reason]. *)
