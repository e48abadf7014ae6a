(** The α-acyclicity kernel: restricted maximum cardinality search on
    hyperedges (Tarjan & Yannakakis, SIAM J. Comput. 1984).

    The search selects next the hyperedge with the most marked nodes,
    then marks its nodes. Let M(e) be the nodes of [e] marked before
    [e] was selected and R(e) the latest hyperedge that marked one of
    them: the hypergraph is α-acyclic iff M(e) ⊆ R(e) for every [e].
    Then the selection order has the running intersection property
    (reversed, it is the paper's Lemma 1 ordering W) and the R-parents
    form a join forest. Every path that decides α or builds a join
    tree runs this kernel; the GYO reduction survives only as a test
    oracle. *)

open Graphs

type forest = {
  order : int array;  (** hyperedge indices in selection order *)
  parent : int array;
      (** R(i), or [-1] when [i] met no marked node: one root per
          component and per empty hyperedge *)
}

val incidence : Csr.t -> boundary:int -> forest option
(** The kernel on an incidence graph in the convention of
    {!Beta.acyclic_incidence}: nodes below [boundary], hyperedge [i]
    at vertex [boundary + i], every edge crossing the boundary (a
    bipartite graph's CSR with [boundary = nl] reads as H¹, its flip's
    as H²). A bucket queue and one stamp per parent: O(n + m). [None]
    off α. *)

val run : Hypergraph.t -> forest option
(** {!incidence} on {!Hypergraph.incidence_csr}. *)

val alpha_acyclic : Hypergraph.t -> bool

val join_tree : Hypergraph.t -> Join_tree.t option
(** The R-parents as a join tree (a forest when disconnected). *)

val rip_ordering : Hypergraph.t -> int list option
(** The selection order, when the hypergraph is α-acyclic. *)
