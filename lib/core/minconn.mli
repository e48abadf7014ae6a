(** Facade of the library: classify a conceptual scheme, pick the right
    solver per the paper's complexity map, and solve minimal-connection
    queries. The submodule aliases re-export the full API so that
    [Minconn] is the single entry point a downstream user needs.

    Paper: Ausiello, D'Atri, Moscarini — "Chordality properties on
    graphs and minimal conceptual connections in semantic data models"
    (PODS 1985 / JCSS 1986). *)


(** {1 Re-exports} *)

module Iset = Graphs.Iset
module Ugraph = Graphs.Ugraph
module Traverse = Graphs.Traverse
module Chordal = Graphs.Chordal
module Strongly_chordal = Graphs.Strongly_chordal
module Hypergraph = Hypergraphs.Hypergraph
module Acyclicity = Hypergraphs.Acyclicity
module Join_tree = Hypergraphs.Join_tree
module Decomposition = Hypergraphs.Decomposition
module Bigraph = Bipartite.Bigraph
module Correspond = Bipartite.Correspond
module Classify = Bipartite.Classify
module Delta = Bipartite.Delta
module Mn_chordality = Bipartite.Mn_chordality
module Side_properties = Bipartite.Side_properties
module Tree = Steiner.Tree
module Kbest = Steiner.Kbest
module Local_search = Steiner.Local_search
module Algorithm1 = Steiner.Algorithm1
module Algorithm2 = Steiner.Algorithm2
module Dreyfus_wagner = Steiner.Dreyfus_wagner
module Mst_approx = Steiner.Mst_approx
module Schema = Datamodel.Schema
module Er = Datamodel.Er
module Query = Datamodel.Query
module Interface = Datamodel.Interface
module Dialogue = Datamodel.Dialogue
module Layered = Datamodel.Layered
module Repair = Datamodel.Repair
module Figures = Datamodel.Figures
module Budget = Runtime.Budget
module Degrade = Runtime.Degrade
module Errors = Runtime.Errors

module Compiled = Engine.Compiled
(** One-time schema compilation: CSR arena and components, computed
    once and shared by any number of queries, with each component's
    classification profile memoised by the first query that lands in
    it. The plan holds no solver state: each query derives what its
    algorithm needs on the terminals' component. *)

module Session = Engine.Session
(** Compile-once / query-many serving: [Session.query] and
    [Session.solve_many] answer terminal-set queries against a
    {!Compiled.t}, each on the terminals' component alone. {!solve}
    below is the one-shot compile-then-query wrapper. *)

(** {1 One-call solving} *)

(** Which solver produced a result and with what guarantee. *)
type method_used = Engine.Session.method_used =
  | Used_forest  (** exact and unique: graph is (4,1)-chordal *)
  | Used_algorithm2  (** exact: graph is (6,2)-chordal (Theorem 5) *)
  | Used_exact_dp  (** exact: Dreyfus–Wagner *)
  | Used_elimination  (** heuristic nonredundant cover (no guarantee) *)
  | Used_mst_approx  (** metric-closure MST 2-approximation *)

type solution = Engine.Session.solution = {
  tree : Tree.t;
  method_used : method_used;
  optimal : bool;  (** [provenance.guarantee = Exact] *)
  profile : Classify.profile;
      (** the terminals' component's profile, which licensed the rung *)
  provenance : Degrade.provenance;
      (** which ladder rung ran, why earlier rungs were abandoned
          (timeout, fuel, out-of-class, terminals-over-cap), and the
          resulting guarantee *)
}

val solve :
  ?budget:Budget.t ->
  ?degrade:bool ->
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  Bigraph.t ->
  p:Iset.t ->
  (solution, Errors.t) result
(** The resource-governed runtime boundary: one-shot
    compile-then-query. Classifies the terminals' component, picks the
    best rung its classification licenses, and — when [budget] runs
    out mid-solve — descends the degradation ladder

    {v exact (structured or DP)  ->  fixpoint elimination  ->  MST 2-approx v}

    recording every abandoned rung in the returned provenance. The
    terminals are validated (empty, out of range, disconnected) by the
    session in O(|p|) against the compiled component ids, and no other
    component is classified. With [~degrade:false] the
    first exhausted rung is reported as [Error (Budget_exhausted _)]
    instead of falling through. The internal [Budget.Exhausted] signal
    never escapes this function. Answering many terminal sets over one
    scheme? {!Compiled.compile} once and use {!Session.query} /
    {!Session.solve_many} — this wrapper repays the compilation on
    every call.

    [trace] (default disabled) records a ["solve"] root span containing
    a ["compile"] span (component labelling) and a ["query"] span with
    the component's ["classify"] span and one ["rung:<name>"] span
    per attempted rung (outcome, abandonment reason, budget-check
    delta), structured ["ladder.abandon"]/["ladder.ran"] events
    mirroring the returned provenance, and — only when tracing is on —
    a ["verify"] span that re-checks the returned tree against the
    terminals. [metrics] (default disabled) accumulates
    [budget.checks], [rung.abandonments], [engine.compiles] and
    [engine.queries] counters plus the solver histograms
    ([elimination.steps_per_solve], [dp.table_size]). Both default to
    shared inert instances whose cost at every instrumentation site is
    one load and one branch. *)

val solve_min_relations :
  Bigraph.t -> p:Iset.t -> (Algorithm1.result, Errors.t) result
(** Algorithm 1 (pseudo-Steiner w.r.t. V₂) behind the same typed
    validation as {!solve}: empty or out-of-range terminal sets are
    [Invalid_instance], disconnected ones [Disconnected_terminals], and
    a non-α-acyclic terminal component is reported as
    [Invalid_instance] rather than a solver-private variant. Sessions
    expose the amortized equivalent as {!Session.query_relations}. *)

val report : ?trace:Observe.Trace.t -> Bigraph.t -> string
(** Human-readable classification + recommendation, used by the CLI.
    The profile is {!Classify.profile}: per connected component, as
    {!Compiled.profile} combines it, under one ["classify"] span on
    [trace]. *)

val version : string
