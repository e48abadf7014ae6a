(** The asymmetric chordality and conformity notions of Definition 5,
    with both the fast recognisers (through the hypergraph
    correspondence, Theorem 1) and literal brute-force checkers.

    Convention (see DESIGN.md §2): the [side] argument names the side
    providing the witnesses. [chordal g V2] demands that every cycle of
    length ≥ 8 has a {e V₂} node adjacent to two cycle nodes at cycle
    distance ≥ 4, and equals chordality of the 2-section [G(H¹_G)];
    [conformal g V2] demands that every pairwise-distance-2 subset of V₁
    has a common V₂ neighbor, and equals conformality of [H¹_G]. Both
    together equal α-acyclicity of [H¹_G] (Theorem 1 (v)). *)

val chordal : Bigraph.t -> Bigraph.side -> bool
(** Chordality of the 2-section, cut from G's CSR for [V2] and from
    its flip's for [V1] ({!Hypergraphs.Hypergraph.two_section_csr}),
    decided by {!Graphs.Chordal.is_chordal_csr}; no hypergraph is
    built. *)

val conformal : Bigraph.t -> Bigraph.side -> bool
(** Gilmore's criterion ({!Hypergraphs.Conformal.incidence}) on G's
    CSR for [V2], on its flip's for [V1]; no hypergraph is built. *)

val alpha_side : Bigraph.t -> Bigraph.side -> bool
(** [chordal && conformal], tested directly as α-acyclicity of the
    corresponding hypergraph: {!Hypergraphs.Mcs.incidence} on G's CSR
    for [V2], on its flip's for [V1]; no hypergraph is built. *)

val chordal_brute : Bigraph.t -> Bigraph.side -> bool
(** Literal Definition 5 by cycle enumeration; exponential. *)

val conformal_brute : Bigraph.t -> Bigraph.side -> bool
(** Literal Definition 5: every maximal pairwise-distance-2 set on the
    opposite side has a common neighbor on the witness side.
    Exponential. *)
