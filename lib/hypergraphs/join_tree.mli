(** Join trees (a.k.a. junction trees) over a hypergraph's edges.

    A join tree is a forest on the hyperedge indices such that for every
    node [v], the edges containing [v] induce a connected subtree — the
    "running intersection" shape that makes α-acyclic database schemas
    pleasant (Beeri–Fagin–Maier–Yannakakis). *)

type t = {
  hypergraph : Hypergraph.t;
  parent : int array;  (** [parent.(i) = -1] for roots *)
}

val make : Hypergraph.t -> parent:int array -> t
(** Raises [Invalid_argument] if [parent] has the wrong length or
    contains a cycle. Does {e not} check coherence; see {!verify}. *)

val verify : t -> bool
(** The defining property: for every node, the set of edges containing
    it is connected in the forest. *)

val children_arrays : t -> int array array
(** [children_arrays t].(i) lists [i]'s children in increasing index
    order, built in one O(q) pass. *)

val roots : t -> int list

val preorder : t -> int list
(** Roots first, then children, depth-first. On a coherent join tree of
    a connected hypergraph this is a running-intersection ordering. *)

val order : t -> int array
(** {!preorder} as a flat array, for index-driven passes: iterating it
    backwards visits every node before its parent. *)

val rip_holds : Hypergraph.t -> int list -> bool
(** [rip_holds h order] checks the running intersection property of an
    edge ordering [e1; ...; eq]: for each [i >= 2],
    [edge ei ∩ (edge e1 ∪ ... ∪ edge e(i-1))] is contained in some
    single earlier edge. ([order] may cover a sub-family.) *)
