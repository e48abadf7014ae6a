(** (m, n)-chordality of bipartite graphs (Definition 4) and the three
    classes the paper singles out, with the fast recognisers delivered
    by Theorem 1:

    - (4,1)-chordal ⇔ H¹ Berge-acyclic ⇔ the graph is a forest;
    - (6,2)-chordal ⇔ H¹ γ-acyclic;
    - (6,1)-chordal ⇔ H¹ β-acyclic ("chordal bipartite" graphs),
      also recognised independently by bisimplicial edge elimination
      (Golumbic–Goss).

    The brute-force checker enumerates cycles and counts chords; it is
    the definitional oracle for the test suite. *)

val is_mn_chordal_brute : Bigraph.t -> m:int -> n:int -> bool
(** Every cycle of length at least [m] has at least [n] chords.
    Exponential. *)

val is_41_chordal : Bigraph.t -> bool

val is_62_chordal : Bigraph.t -> bool
(** γ-elimination ({!Hypergraphs.Gamma.acyclic_incidence}) on the
    graph's CSR, which is H¹'s incidence graph. *)

val is_61_chordal : Bigraph.t -> bool
(** β-elimination ({!Hypergraphs.Beta.acyclic_incidence}) on the
    graph's CSR, with the lefts as H¹'s nodes. *)

val is_61_chordal_bisimplicial : Bigraph.t -> bool
(** Independent recogniser: greedily delete bisimplicial edges (edges
    [(u, v)] with [N(u) ∪ N(v)] inducing a complete bipartite subgraph);
    the graph is chordal bipartite iff all edges get deleted. *)
