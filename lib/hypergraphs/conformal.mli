(** Conformality: every clique of the 2-section is contained in some
    hyperedge (Definition 7).

    The polynomial test is Gilmore's criterion — it is enough to check,
    for every triple of edges, that the union of their pairwise
    intersections lies inside a single edge — plus coverage of isolated
    nodes. The exponential oracle enumerates maximal cliques. *)

open Graphs

val incidence : Csr.t -> boundary:int -> (int * int * int) option
(** Gilmore's criterion on an incidence graph in the convention of
    {!Mcs.incidence}: nodes below [boundary], hyperedge [i] at vertex
    [boundary + i] (a bipartite graph's CSR with [boundary = nl] reads
    as H¹, its flip's as H²; an isolated vertex above the boundary is
    an empty hyperedge). Returns the lexicographically first triple of
    hyperedge indices violating the criterion, if any.

    Only triangles of the hyperedges' intersection graph can violate
    it, so only they are visited, in lexicographic order; each row of
    the intersection graph is stamped when first needed, never built
    whole. Writing N(i) for the hyperedges meeting e_i and d(v) for
    the degree of node v, the cost is O(Σ_i Σ_{j ∈ N(i)} (Σ_{v ∈ e_j}
    d(v) + |N(i)|)) to find the triangles, plus, per triangle
    (i, j, k), O(|e_j| + |e_k|) to form the union S and
    O(d(v) · |S| log Δ) to test it against the hyperedges through one
    node v of S. Stops at the first violation. *)

val gilmore_violation : Hypergraph.t -> (int * int * int) option
(** {!incidence} on {!Hypergraph.incidence_csr}. *)

val is_conformal : Hypergraph.t -> bool
(** Gilmore criterion, restricted to nodes covered by some edge
    (a node in no edge forms a singleton clique contained in no edge,
    which we deliberately do not count as a violation: the paper's
    hypergraphs cover all their nodes). *)

val is_conformal_brute : Hypergraph.t -> bool
(** Via maximal-clique enumeration of the 2-section; exponential. *)
