(** Simple undirected graphs over the node universe [{0, ..., n-1}].

    The structure is immutable once built; use {!Builder} for efficient
    incremental construction. Self-loops are rejected and parallel edges
    collapse (the adjacency is a set). Several algorithms in this
    repository work on an {e induced subgraph}: rather than materialise
    the subgraph, they take an optional [within] node set and simply
    ignore nodes outside it — see {!Traverse}. *)

type t

val create : int -> t
(** [create n] is the edgeless graph on [n] nodes. Raises
    [Invalid_argument] if [n < 0]. *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph on [n] nodes with the given
    undirected edges. Raises [Invalid_argument] on out-of-range
    endpoints or self-loops. *)

val of_adjacency : Iset.t array -> m:int -> t
(** Trusted O(1) constructor over a prebuilt adjacency: the caller
    guarantees the array is symmetric ([v ∈ adj.(u)] iff [u ∈ adj.(v)]),
    self-loop-free, in range, and that [m] is the undirected edge
    count. Used by [Csr.to_ugraph] to convert a million-node CSR back
    to sets without per-edge AVL inserts; not for general use. *)

val add_edge : t -> int -> int -> t
(** Functional edge insertion (O(n) copy; prefer {!Builder} in loops). *)

val remove_edge : t -> int -> int -> t

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of (undirected) edges. *)

val mem_edge : t -> int -> int -> bool

val neighbors : t -> int -> Iset.t

val degree : t -> int -> int

val nodes : t -> Iset.t

val default_within : t -> Iset.t option -> Iset.t
(** The node set an optional [?within] argument stands for: the given
    set, or every node of the graph when it is absent. *)

val edges : t -> (int * int) list
(** Each undirected edge reported once, as [(u, v)] with [u < v]. *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val adj_within : t -> within:Iset.t -> int -> Iset.t
(** Neighbors intersected with [within]. *)

val private_neighbors : t -> within:Iset.t -> int -> Iset.t
(** [private_neighbors g ~within v] is the paper's [Adj*(v)] relative to
    the induced subgraph on [within]: nodes of [within] adjacent to [v]
    and to no other node of [within]. *)

val induced : t -> Iset.t -> t * int array
(** [induced g w] materialises the induced subgraph, renumbering nodes
    to [0..card w - 1]; the returned array maps new indices back to the
    original node ids. *)

val is_clique : t -> Iset.t -> bool

val complement : t -> t

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

module Builder : sig
  type graph := t
  type t

  val create : int -> t
  val add_edge : t -> int -> int -> unit
  val build : t -> graph
end
