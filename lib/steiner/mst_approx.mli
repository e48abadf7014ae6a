(** The classical 2-approximation for unweighted Steiner trees
    (Kou–Markowsky–Berman style): build the metric closure of the
    terminals, take its minimum spanning tree, expand each MST edge
    into a shortest path, and prune.

    This is the structure-oblivious baseline: on (6,2)-chordal inputs
    it can return strictly more nodes than Algorithm 2, which is one of
    the benchmark harness's headline comparisons. *)

open Graphs

val solve_csr :
  ?trace:Observe.Trace.t -> Csr.t -> terminals:Iset.t -> Tree.t option
(** The one body, on a CSR: a BFS per terminal over the sorted rows,
    Prim on the terminals' metric closure, parent-pointer expansion,
    {!Tree.prune_leaves}, and {!Tree.of_csr_node_set} spanning trees.
    Builds no set view. Contract as {!solve}; a terminal outside the
    CSR gives [None]. *)

val solve :
  ?trace:Observe.Trace.t -> Ugraph.t -> terminals:Iset.t -> Tree.t option
(** [None] when the terminals do not share a component. [trace] records
    an ["mst_approx"] span with terminal and result-tree node counts.
    Degenerate inputs (empty or singleton terminal sets, isolated
    terminal nodes) return the trivial tree or [None]; they never
    crash. {!solve_csr} on the graph's CSR. *)
