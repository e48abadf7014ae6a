(** Chordal (triangulated) graph recognition.

    A graph is chordal when every cycle of length at least 4 has a
    chord, equivalently when it admits a perfect elimination ordering.
    One kernel decides it, on a {!Csr}, in O(n + m): maximum
    cardinality search with a bucket queue, then the zero fill-in test
    on the reversed visit order (Tarjan and Yannakakis, SIAM
    J. Comput. 13(3), 1984). The [Ugraph] entry points build one CSR
    of the graph induced on [within] and run that kernel on it. A
    brute-force chordless-cycle search is provided as an independent
    oracle for the test suite. *)

val is_chordal_csr : Csr.t -> bool
(** The kernel: the reversed maximum cardinality search order of the
    whole CSR is a perfect elimination ordering. O(n + m). *)

val mcs_order : ?within:Iset.t -> Ugraph.t -> int list
(** The kernel's maximum cardinality search visit order of the induced
    subgraph, first visited first, starting from the smallest id. Its
    reversal is a perfect elimination ordering exactly when the
    subgraph is chordal. *)

val is_perfect_elimination_order : ?within:Iset.t -> Ugraph.t -> int list -> bool
(** [is_perfect_elimination_order g order] checks that for each node,
    its neighbors occurring later in [order] form a clique. [order] must
    enumerate exactly the nodes of the induced subgraph. *)

val perfect_elimination_order : ?within:Iset.t -> Ugraph.t -> int list option
(** A perfect elimination ordering if the (induced) graph is chordal,
    [None] otherwise. *)

val is_chordal : ?within:Iset.t -> Ugraph.t -> bool

val is_chordal_brute : ?within:Iset.t -> Ugraph.t -> bool
(** Exhaustive search for a chordless cycle of length >= 4.
    Exponential; test oracle only. *)

val simplicial_nodes : ?within:Iset.t -> Ugraph.t -> Iset.t
(** Nodes whose neighborhood (within the subgraph) is a clique. *)
