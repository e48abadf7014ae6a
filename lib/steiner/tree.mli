(** Result trees returned by every Steiner solver in this library. *)

open Graphs

type t = {
  nodes : Iset.t;  (** nodes of the tree (underlying graph indices) *)
  edges : (int * int) list;  (** the [|nodes| - 1] tree edges *)
}

val empty : t

val node_count : t -> int

val count_in : t -> Iset.t -> int
(** How many tree nodes fall in the given set (used to count V₂ nodes
    for pseudo-Steiner objectives). *)

val verify : Ugraph.t -> terminals:Iset.t -> t -> bool
(** The edges form a tree of [g] over exactly [t.nodes], and the tree
    contains every terminal. *)

val relabel : int array -> t -> t
(** [relabel ids t] renames every node [v] of [t] to [ids.(v)]: it maps
    a tree found on a slice back to the graph the slice was cut from,
    given the slice's id array (as {!Bipartite.Bigraph.induced} returns
    it). Edge order is kept. *)

val of_node_set : Ugraph.t -> Iset.t -> t option
(** Spanning tree of the induced subgraph, when connected: the BFS tree
    of {!Graphs.Spanning.spanning_tree}, rooted at the least node. *)

val of_csr_node_set : Csr.t -> Iset.t -> t option
(** {!of_node_set} on the CSR: the same BFS over the sorted rows, so
    the same edges in the same order, in O(|nodes| + their degrees)
    plus one bitset over the CSR's nodes — no set view. *)

val spanning_with_leaves_in : Ugraph.t -> nodes:Iset.t -> terminals:Iset.t -> t option
(** A spanning tree of the induced subgraph on [nodes] in which every
    leaf is a terminal, if one exists. Used to rank alternative query
    interpretations: such a tree certifies that every auxiliary node
    genuinely routes the connection instead of dangling. Exponential in
    the induced edge count; meant for small connections. *)

val prune_leaves : Ugraph.t -> keep:Iset.t -> t -> t
(** Repeatedly remove degree-1 tree nodes not in [keep]. Never increases
    any node count; useful to tidy covers into inclusion-minimal
    trees. *)

val pp : Format.formatter -> t -> unit
