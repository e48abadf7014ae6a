(** Conformality: every clique of the 2-section is contained in some
    hyperedge (Definition 7).

    The polynomial test is Gilmore's criterion — it is enough to check,
    for every triple of edges, that the union of their pairwise
    intersections lies inside a single edge — plus coverage of isolated
    nodes. The exponential oracle enumerates maximal cliques. *)

val gilmore_violation : Hypergraph.t -> (int * int * int) option
(** The lexicographically first triple of edge indices violating
    Gilmore's criterion, if any. Runs on dense bitsets: hyperedges are
    packed once, the triple loop then costs O(n / word_size) words per
    set operation and allocates nothing. *)

val is_conformal : Hypergraph.t -> bool
(** Gilmore criterion, restricted to nodes covered by some edge
    (a node in no edge forms a singleton clique contained in no edge,
    which we deliberately do not count as a violation: the paper's
    hypergraphs cover all their nodes). *)

val is_conformal_brute : Hypergraph.t -> bool
(** Via maximal-clique enumeration of the 2-section; exponential. *)
