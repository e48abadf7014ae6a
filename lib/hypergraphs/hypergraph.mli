(** Hypergraphs over the node universe [{0, ..., n_nodes - 1}].

    Following the paper's Definition 1, a hypergraph is a finite node
    set together with a {e family} of nonempty hyperedges — duplicate
    edges are allowed (they are what make the bipartite-graph /
    hypergraph correspondence of Definition 2 exact), so edges are
    indexed by position. *)

open Graphs

type t

val create : n_nodes:int -> Iset.t list -> t
(** Raises [Invalid_argument] if any edge is empty or mentions a node
    outside the universe. Duplicates are kept. *)

val n_nodes : t -> int

val n_edges : t -> int

val edge : t -> int -> Iset.t
(** [edge h i] is the [i]-th hyperedge. *)

val edges : t -> Iset.t array
(** Fresh array of all hyperedges, in index order. *)

val total_size : t -> int
(** Sum of edge cardinalities. *)

val incident : t -> int -> Iset.t
(** [incident h v] is the set of edge indices containing node [v]. *)

val covered_nodes : t -> Iset.t
(** Nodes belonging to at least one edge. *)

val mem : t -> edge:int -> node:int -> bool

val dual : t -> t
(** Definition 3: nodes of the dual are this hypergraph's edge indices;
    the dual has one edge per original node [v] that belongs to at least
    one edge, namely [incident h v]. Nodes in no edge contribute no dual
    edge (edges must be nonempty); the correspondence with the paper is
    exact on hypergraphs without isolated nodes. *)

val two_section : t -> Ugraph.t
(** The paper's [G(H)]: same nodes, an arc between every two distinct
    nodes sharing an edge. *)

val incidence_graph : t -> Ugraph.t * int
(** Bipartite incidence graph: nodes [0 .. n_nodes-1] are hypergraph
    nodes, nodes [n_nodes .. n_nodes+n_edges-1] are edges; returns the
    graph and the offset [n_nodes]. *)

val incidence_csr : t -> Csr.t * int
(** The same incidence graph as a {!Graphs.Csr.t}, built straight from
    the edge family: nodes below the returned boundary [n_nodes],
    hyperedges above it. The form the γ and β elimination kernels
    read. *)

val two_section_csr : Csr.t -> boundary:int -> Csr.t
(** [two_section_csr t ~boundary] is the 2-section, over nodes
    [0 .. boundary-1], of the hypergraph whose incidence CSR is [t]:
    nodes below [boundary], hyperedges at or above it (as
    {!incidence_csr} builds it, or a bipartite schema's CSR with its
    left side below the boundary). Each distinct pair is emitted once,
    so the work is the sum over hyperedges of their squared sizes, plus
    sorting the rows. *)

val restrict : t -> Iset.t -> t
(** Partial hypergraph induced by a node set: intersect every edge with
    the set, drop emptied edges. Node universe unchanged. *)

val remove_node : t -> int -> t

val remove_edge_at : t -> int -> t

val reduce : t -> t
(** Remove every edge properly contained in another edge, and collapse
    duplicate edges to one occurrence (the classical "reduction"). *)

val is_connected : t -> bool
(** Covered nodes form one component of the incidence graph; vacuously
    true when there are no edges. *)

val equal_modulo_order : t -> t -> bool
(** Same node universe and same multiset of edges. *)

val pp : Format.formatter -> t -> unit
