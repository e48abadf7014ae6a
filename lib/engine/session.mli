(** Query sessions over a compiled schema.

    A session is a compiled plan plus its observability sinks, and
    answers any number of terminal-set queries against one
    {!Compiled.t}. Budgets and the degradation policy are per call:
    each {!query} takes its own. The component decomposition is read
    from the compiled plan; a query performs terminal location, the
    classification of its component if no earlier query classified it
    ({!Compiled.classify}), the degradation ladder, and the chosen
    solver, all on the terminals' component: both {!query} and
    {!query_relations} cut its induced slice out once, through one
    helper, so a query costs the component, not the schema. Sessions
    are not safe for concurrent use: the trace they share across
    queries is mutable. Several sessions may share one plan across
    threads: its profile memos tolerate racing writers. *)

open Graphs
open Bipartite
module Budget = Runtime.Budget
module Degrade = Runtime.Degrade
module Errors = Runtime.Errors
module Tree = Steiner.Tree
module Algorithm1 = Steiner.Algorithm1

(** Which solver produced a result and with what guarantee. *)
type method_used =
  | Used_forest  (** exact and unique: graph is (4,1)-chordal *)
  | Used_algorithm2  (** exact: graph is (6,2)-chordal (Theorem 5) *)
  | Used_exact_dp  (** exact: Dreyfus–Wagner *)
  | Used_elimination  (** heuristic nonredundant cover (no guarantee) *)
  | Used_mst_approx  (** metric-closure MST 2-approximation *)

type solution = {
  tree : Tree.t;
  method_used : method_used;
  optimal : bool;  (** [provenance.guarantee = Exact] *)
  profile : Classify.profile;
      (** the terminals' component's profile, which licensed the rung *)
  provenance : Degrade.provenance;
      (** which ladder rung ran, why earlier rungs were abandoned, and
          the resulting guarantee *)
}

type t

val create :
  ?trace:Observe.Trace.t -> ?metrics:Observe.Metrics.t -> Compiled.t -> t
(** A session over a plan; [trace]/[metrics] default to the shared
    inert instances. *)

val compiled : t -> Compiled.t

val with_plan : t -> Compiled.t -> t
(** [with_plan t c] is the session retargeted at plan [c], with the
    same trace and metrics. Physical no-op
    (returns [t] itself)
    when [c == compiled t] — the cheap per-request resync the serving
    layer performs so schema deltas swap in without dropping inflight
    requests (a request keeps the immutable plan it started with). *)

val query :
  ?make_budget:(unit -> Budget.t) ->
  ?degrade:bool ->
  t ->
  p:Iset.t ->
  (solution, Errors.t) result
(** One minimal-connection query. Validation (empty, out-of-range,
    disconnected terminals) is O(|p|) against the cached component ids.
    Every rung runs on the induced slice of the terminals' component
    ({!Bipartite.Bigraph.induced}, which renumbers ascending; the graph
    itself, with no renumbering, when the plan has one component) and
    its tree is mapped back, so the answer is the one the rung returns
    on the whole graph. The rung is picked from that component's
    profile ({!Compiled.classify}, filled from the same slice by the
    first query that lands in the component and recorded as its one
    ["classify"] span under the ["query"] span; later queries there
    record none). The whole-schema profile is the conjunction of the
    components', so the two pick the same rung on a single-class schema
    and the component's is never the weaker guarantee. No rung builds a
    set view. The (4,1) rung answers the seed cover {!Steiner.Cover.seed}
    itself — un-budgeted and total on connected terminals, so it is the
    whole (4,1) ladder; the (6,2) and fixpoint rungs eliminate inside
    it ({!Steiner.Algorithm2.solve_csr}). The degradation ladder, rung
    spans, [ladder.*] events and [budget.checks]/[rung.abandonments]
    counters are exactly those of the one-shot solver, recorded under a
    ["query"] span whose [component] attribute is the slice's size.
    [make_budget] (default: unlimited) is called once, after the
    classification, so the budget it returns meters this query's
    solving alone — never compilation or classification — and
    [degrade] (default [true]) selects ladder fall-through vs
    fail-fast. *)

val solve_many :
  ?make_budget:(int -> Budget.t) ->
  ?degrade:bool ->
  t ->
  Iset.t list ->
  (solution, Errors.t) result list
(** [query] over a batch, in order; one result per terminal set,
    errors kept in position. Query [i] runs under a fault plan derived
    from the caller's by index ({!Runtime.Fault.with_derived}), so its
    injected faults do not depend on the rest of the batch.

    [make_budget] builds the budget for query [i], as {!query}'s
    [make_budget] does (after the component is classified) —
    [fun _ -> Budget.make ~fuel:f ()] for a fresh deterministic
    allowance per query; without it every query is unlimited. *)

val query_relations :
  t -> p:Iset.t -> (Algorithm1.result, Errors.t) result
(** Algorithm 1 (minimum relation count, Theorem 3/4) on the same
    slice of the terminals' component as {!query}
    ({!Steiner.Algorithm1.solve_slice}: Step 1 derives the Lemma 1
    ordering on the slice, under one ["algorithm1.join_tree"] span,
    then Steps 2–3 run), mapped back to the schema's ids.
    [Invalid_instance] when the terminal component is not
    α-acyclic. Algorithm 1 decides that itself, so the component's
    profile memo is neither read nor filled. *)
