(** β-acyclicity (Definition 6 with [D = β]).

    The fast test is nest-point elimination: a node is a {e nest point}
    when the edges containing it form a chain under inclusion, and a
    hypergraph is β-acyclic iff repeatedly deleting nest points deletes
    every node (β-acyclicity is hereditary, so greedy elimination is
    confluent; Brault-Baron, {e Hypergraph Acyclicity Revisited},
    arXiv:1403.7076). The explicit β-cycle search of Definition 6 is
    provided as a brute-force oracle. *)

open Graphs

val is_nest_point : Hypergraph.t -> int -> bool
(** Literal reading of the definition on the set view. *)

val acyclic_incidence : Csr.t -> boundary:int -> bool
(** Nest-point elimination on a bipartite incidence graph whose nodes
    are the vertices below [boundary] and whose hyperedges are the
    vertices above it (for example {!Hypergraph.incidence_csr}, or a
    bipartite graph's CSR with [boundary = nl] read as H¹). Every
    edge must cross the boundary. Live edge sizes are kept per
    deletion. A node that fails its test is blocked by two
    incomparable hyperedges, each with a live node outside the other;
    it is tested again only when one of those two nodes is deleted, so
    a deletion re-tests a few nodes within distance 2 and never
    rescans a hyperedge. Hyperedge vertices of degree 0 and uncovered
    nodes are ignored. *)

val elimination_order_incidence : Csr.t -> boundary:int -> int list option
(** The order in which {!acyclic_incidence} eliminated the covered
    nodes, when it eliminates all of them. *)

val acyclic : Hypergraph.t -> bool
(** {!acyclic_incidence} on the hypergraph's incidence CSR. *)

val elimination_order : Hypergraph.t -> int list option
(** {!elimination_order_incidence} on the hypergraph's incidence CSR:
    the covered nodes in the order they were eliminated, when
    elimination succeeds. *)

val guarded_node_ordering : Hypergraph.t -> int list option
(** The dual running-intersection property that Corollary 1 grants
    β-acyclic hypergraphs: an ordering [n1; ...; nq] of the covered
    nodes such that for every [ni] there is an earlier [nj] belonging
    to {e every} edge containing both [ni] and any earlier node.
    Computed as a running-intersection ordering of the dual hypergraph
    (β-acyclicity is self-dual and implies α-acyclicity of the dual).
    [None] when no such ordering is found. *)

val is_guarded_node_ordering : Hypergraph.t -> int list -> bool
(** Literal check of the quoted property (must enumerate exactly the
    covered nodes). *)

val find_beta_cycle : ?max_q:int -> Hypergraph.t -> (int list * Iset.t list) option
(** Brute-force search for a β-cycle: returns the edge-index cycle
    together with, for each position, the nonempty set of admissible
    thread nodes. Exponential in the number of edges; test oracle
    only. *)
