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

val solve_csr :
  ?order:int list ->
  ?budget:Runtime.Budget.t ->
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  Csr.t ->
  p:Iset.t ->
  Tree.t option
(** The one Algorithm 2 core, on a connected CSR (a component slice,
    as {!Engine.Session} holds it): {!Cover.eliminate} with
    [~drop:Node] over [order] (default increasing ids), then the BFS
    spanning tree of the survivors on the CSR
    ({!Tree.of_csr_node_set}) — edge for edge the tree {!solve}
    returns on the set view. Builds no set view and allocates only
    arrays and bitsets sized to the CSR, the order list and the
    tree. [None] only when the CSR is not connected. One fuel unit of
    [budget] per elimination candidate; [trace] records an
    ["algorithm2"] span (component size, survivor count); [metrics]
    counts elimination steps ([elimination.steps] counter and
    [elimination.steps_per_solve] histogram). *)

val solve :
  ?order:int list ->
  ?budget:Runtime.Budget.t ->
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  Ugraph.t ->
  p:Iset.t ->
  Tree.t option
(** The set-view entry point: [None] when the terminals do not share a
    component. The component containing [p] is cut out as a CSR of
    its own ({!Cover.slice}, renumbered ascending), run through
    {!solve_csr}, and the tree mapped back. [order] defaults to
    increasing node ids and may mention any subset of nodes (missing
    component nodes are appended in increasing order, nodes outside
    the component and terminals are skipped). Budget, span and
    metrics as {!solve_csr}. *)
