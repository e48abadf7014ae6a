(** Algorithm 2 (Theorem 5): Steiner trees on (6,2)-chordal bipartite
    graphs in O(|V|·|A|).

    For every node outside the terminal set, in any order, drop it if
    the remainder still covers the terminals; finish with a spanning
    tree. Lemma 5 shows that on (6,2)-chordal graphs {e every}
    nonredundant cover is minimum, so this one-pass elimination is
    exact there (Corollary 5: all orderings are good). On arbitrary
    graphs the function still returns a tree over the terminals — just
    without the optimality guarantee — which is exactly how the paper's
    Theorem 6 discussion exercises it. *)

open Graphs

val solve :
  ?order:int list ->
  ?budget:Runtime.Budget.t ->
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  Ugraph.t ->
  p:Iset.t ->
  Tree.t option
(** [None] when the terminals do not share a component. The elimination
    is restricted to the component containing [p]; [order] defaults to
    increasing node ids and may mention any subset of nodes (missing
    nodes are appended in increasing order, terminals are skipped).
    The elimination is {!Cover.eliminate_redundant}: the component is
    cut out as a CSR of its own and run through the one elimination
    fixpoint, which spends one fuel unit of [budget] per elimination
    candidate. [trace] records
    an ["algorithm2"] span (component size, survivor count); [metrics]
    counts elimination steps ([elimination.steps] counter and
    [elimination.steps_per_solve] histogram). *)
