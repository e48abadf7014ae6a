(** γ-acyclicity (Definition 6 with [D = γ]).

    A γ-cycle is either a β-cycle or a 3-edge Berge cycle
    [(e1, e2, e3)] whose thread nodes satisfy [n1 ∉ e3] and [n3 ∉ e2].
    The recogniser is γ-elimination on the incidence graph (Brault-Baron,
    {e Hypergraph Acyclicity Revisited}, arXiv:1403.7076): repeatedly
    delete a node or edge of degree at most one, or one of two nodes
    (or two edges) with the same live neighbourhood. H is γ-acyclic iff
    this empties the incidence graph. *)

open Graphs

val acyclic_incidence : Csr.t -> bool
(** γ-elimination on a bipartite incidence graph, nodes on one side
    and hyperedges on the other (for example {!Hypergraph.incidence_csr},
    or a bipartite graph's CSR read as H¹). The rules are the same on
    both sides, so the boundary between them is not needed: this is
    the self-duality of γ-acyclicity. A worklist applies the degree
    rule; twins are found through neighbourhood fingerprints (sums of
    fixed per-vertex keys, updated on every deletion and confirmed by
    comparing live rows), so the pass is near-linear in the size of
    the graph. Vertices of degree 0, such as uncovered nodes, are
    simply deleted. *)

val acyclic : Hypergraph.t -> bool
(** {!acyclic_incidence} on the hypergraph's incidence CSR. *)

val special_3_cycle : Hypergraph.t -> (int * int * int) option
(** Some ordered triple [(i, j, k)] of edge indices forming the special
    3-cycle, if any: [(ei ∩ ej) \ ek], [ej ∩ ek] and [(ek ∩ ei) \ ej]
    all nonempty. A cubic scan over edge triples, kept as the witness
    {!Acyclicity.why_not} reports; the recogniser is {!acyclic}. *)
