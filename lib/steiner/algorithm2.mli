(** Algorithm 2 (Theorem 5): Steiner trees on (6,2)-chordal bipartite
    graphs in O(|V|·|A|).

    For every node outside the terminal set, in any order, drop it if
    the remainder still covers the terminals; finish with a spanning
    tree. Lemma 5 shows that on (6,2)-chordal graphs {e every}
    nonredundant cover is minimum (Corollary 5: all orderings are
    good), and nonredundancy depends only on the cover's induced
    subgraph, so eliminating inside the seed cover {!Cover.seed}
    instead of the whole component stays exact. On other graphs the
    result is still a nonredundant cover of G, without the guarantee:
    the session's fixpoint rung. *)

open Graphs

val solve_csr :
  ?budget:Runtime.Budget.t ->
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  Csr.t ->
  p:Iset.t ->
  Tree.t option
(** The one Algorithm 2 core: {!Cover.seed}, {!Cover.eliminate} with
    [~drop:Node] on the seed's induced CSR, then the BFS spanning tree
    of the survivors ({!Tree.of_csr_node_set}) in [csr]'s ids. The
    seed's nodes are scanned in increasing id order; orderings are
    Definition 11's business ({!Cover.eliminate_redundant}). No set view;
    besides the seed's O(n) BFS arrays it allocates only what is sized
    to the seed and the tree. [None] when a terminal is out of range or
    the terminals are not connected. One fuel unit of [budget] per
    elimination candidate; [trace] records an ["algorithm2"] span
    (component, seed and survivor counts); [metrics] counts
    [elimination.steps] (counter and [elimination.steps_per_solve]
    histogram). *)

val solve :
  ?budget:Runtime.Budget.t ->
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  Ugraph.t ->
  p:Iset.t ->
  Tree.t option
(** {!solve_csr} on [Csr.of_ugraph g]: the same tree, steps and budget
    checks. *)
