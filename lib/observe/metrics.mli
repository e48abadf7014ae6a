(** Counters and fixed-bucket histograms.

    Like {!Trace}, a disabled registry hands out shared inert
    instruments whose [incr]/[observe] cost is a single field load plus
    branch, so instrumentation sites need no conditional of their
    own. *)

type counter
type histogram
type t

val disabled : t
val make : unit -> t
val active : t -> bool

val inert : counter
(** Dead counter that ignores [incr]; useful as an optional-argument
    default at instrumentation sites. *)

val counter : t -> string -> counter
(** Find-or-create by name.  On a disabled registry returns {!inert}. *)

val incr : ?by:int -> counter -> unit
val count : counter -> int

val find_counter : t -> string -> int option
(** Read-only lookup: the counter's current value, or [None] when no
    instrumentation site has created it yet. Unlike {!counter} this
    never allocates a new instrument, so assertions and status
    endpoints can probe without perturbing the registry. The serving
    layer's canonical counter names are [serve.accepted], [serve.shed],
    [serve.reaped], [serve.requests], [serve.degraded], [serve.errors],
    [serve.epipe] and [serve.drain_forced], alongside the solver's
    [engine.*], [budget.*] and [rung.*] families. *)

val default_bounds : float array
(** Powers-of-four upper bounds: 1, 4, 16, ... 16384. *)

val histogram : t -> ?bounds:float array -> string -> histogram
(** Find-or-create by name.  [bounds] are upper bucket bounds (sorted
    internally); one overflow bucket is appended. *)

val observe : histogram -> float -> unit

val counters : t -> (string * int) list
(** Name/value pairs in creation order. *)

val histograms : t -> histogram list

val hist_name : histogram -> string
val hist_bounds : histogram -> float array
val hist_buckets : histogram -> int array
val hist_sum : histogram -> float
val hist_events : histogram -> int
