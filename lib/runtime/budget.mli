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

val is_unlimited : t -> bool

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

(** Batch-level budgets shared across concurrent tasks (the server's
    request threads, or the queries of one batch).

    A {!Shared.handle} pools a deadline and a fuel tank; each
    task checks against its own {!Shared.view} (an ordinary {!t}, so
    solvers are oblivious), but fuel is drawn from the shared atomic
    tank and a batch-wide cancel flag is consulted on every check.
    When any task exhausts the pool (or someone calls
    {!Shared.cancel}), every in-flight sibling stops at its next
    cooperative checkpoint — cancellation stays cooperative, nothing
    is interrupted asynchronously.

    Because threads interleave nondeterministically, *which* task
    first drains a shared tank is not reproducible run to run; use
    per-query [make] budgets when determinism matters and a shared
    handle when the contract is "this whole batch gets at most X". *)
module Shared : sig
  type handle

  val make : ?timeout_ms:int -> ?fuel:int -> unit -> handle
  (** Like {!val:make}, but the fuel is a pooled tank for the whole
      batch and the deadline is shared by every view. *)

  val view : ?timeout_ms:int -> handle -> t
  (** A fresh per-task budget drawing on the handle. Create one view
      per task (views carry task-local stride/diagnostic state).
      [timeout_ms] tightens this view's deadline to the earlier of the
      handle's shared deadline and [now + timeout_ms] — the serving
      pattern, where every request draws fuel from the server-wide
      tank but also carries its own wall-clock cap. *)

  val cancel : handle -> Errors.stop_reason -> unit
  (** Stop the batch: every view raises the internal exhaustion signal
      with [reason] at its next check. First cancel wins. *)

  val cancelled : handle -> Errors.stop_reason option
end
