(** Bipartite graphs [G = (V1, V2, A)] (Definition 1).

    Left nodes ([V1], indices [0 .. nl-1]) model the paper's attribute /
    lower conceptual level; right nodes ([V2], indices [0 .. nr-1])
    model relations / higher level. Internally the graph lives on
    [nl + nr] underlying nodes with right node [j] stored at index
    [nl + j], in one adjacency form: an immutable flat {!Graphs.Csr.t}.
    Every constructor and every edit builds that CSR directly, so a
    value is canonical — equal graphs are equal values, whatever built
    them — and stream construction ([of_edge_iter], [of_csr]) never
    materialises per-node sets. The set-based {!Graphs.Ugraph.t} view
    is a derivation on request ({!ugraph}). This module maintains the
    bipartition invariant and provides typed access. *)

open Graphs

type t

type side = V1 | V2

(** A typed node: [L i] is the [i]-th left node, [R j] the [j]-th right
    node. *)
type node = L of int | R of int

val create : nl:int -> nr:int -> t

val of_edges : nl:int -> nr:int -> (int * int) list -> t
(** Edges as (left index, right index) pairs: {!of_edge_iter} over a
    list, the convenient API for small callers. *)

val of_edge_iter : nl:int -> nr:int -> ((int -> int -> unit) -> unit) -> t
(** Direct-to-CSR stream construction: [iter f] calls [f i j] once per
    (left, right) edge occurrence and must replay identically when
    invoked twice (see [Csr.of_edge_iter]). Duplicates and arbitrary
    order are fine; no set-based adjacency is ever built. *)

val of_csr : nl:int -> nr:int -> Csr.t -> t
(** Adopt a prebuilt CSR on [nl + nr] underlying nodes. Validates the
    bipartition in O(m): every edge must cross the [nl] boundary. *)

val of_bipartite_ugraph : nl:int -> Ugraph.t -> t
(** Adopt a set-based graph already in bipartite layout (lefts below
    [nl], rights above). Validates that every edge crosses the
    boundary; [nr] is [Ugraph.n u - nl]. The sets are read into a CSR
    and not kept. *)

val add_edge : t -> int -> int -> t
(** [add_edge g i j] connects left [i] and right [j]. Like every edit
    below, it is one {!Graphs.Csr.splice} of the CSR: the touched rows
    are merged, the others copied by runs and never re-sorted. *)

val remove_edge : t -> int -> int -> t
(** [remove_edge g i j] disconnects left [i] and right [j]; the result
    equals [g] when the edge is absent. *)

val add_relation : t -> Iset.t -> t
(** [add_relation g attrs] appends a fresh right node connected to the
    given left indices. The new relation gets right index [nr g]
    (underlying index [n g]); no existing index moves. *)

val remove_relation : t -> int -> t
(** [remove_relation g j] deletes right node [j] and its incident
    edges. Right indices above [j] (and their underlying indices)
    shift down by one; removing the last relation ([j = nr - 1])
    leaves every surviving index unchanged. *)

val induced : t -> Iset.t -> t * int array
(** [induced g w] materialises the sub-bigraph induced by a set of
    underlying indices, renumbering ascending as {!Graphs.Ugraph.induced}
    does — members below [nl g] become the new lefts, the rest the new
    rights. Returns the mapping from new underlying indices back to the
    originals; {!Graphs.Csr.local_index} inverts it. When [w] holds
    every node of [g], the result is [g] itself (the renumbering is the
    identity). *)

val slice : t -> Csr.components -> local:int array -> int -> t
(** [slice g cs ~local c] is [fst (induced g (Iset.of_array
    (Csr.members cs c)))] for a component [c] of [cs = Csr.components
    (csr g)], cut by {!Graphs.Csr.slice} (same [local] contract): no
    node set, no search. A connected [g] is its own slice. *)

val nl : t -> int
val nr : t -> int
val n : t -> int
val m : t -> int

val ugraph : t -> Ugraph.t
(** The underlying set-based graph; left node [i] is index [i], right
    node [j] is index [nl + j]. Derived from the CSR on every call,
    O(n + m) and not cached: callers that need it more than once keep
    the result, and engine paths call it only on a component slice. *)

val csr : t -> Csr.t
(** The underlying flat adjacency, same index layout. O(1). *)

val index : t -> node -> int
val node_of_index : t -> int -> node

val left_nodes : t -> Iset.t
(** As underlying indices. *)

val right_nodes : t -> Iset.t
(** As underlying indices ([nl .. nl+nr-1]). *)

val nodes_of_side : t -> side -> Iset.t

val mem_edge : t -> int -> int -> bool
(** [mem_edge g i j]: left [i] adjacent to right [j]? *)

val right_neighbors : t -> int -> Iset.t
(** [right_neighbors g i]: right {e indices} (not underlying indices)
    adjacent to left node [i]. *)

val left_neighbors : t -> int -> Iset.t
(** [left_neighbors g j]: left indices adjacent to right node [j]. *)

val edges : t -> (int * int) list
(** As (left index, right index) pairs, ascending by left then right. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** Same edges and order as {!edges} without building the list —
    the million-edge-friendly form (schema hashing, streaming). *)

val flip : t -> t
(** Swap the two sides. *)

val of_ugraph : Ugraph.t -> (t * node array) option
(** 2-colour a graph: [Some (bg, mapping)] when bipartite, where
    [mapping.(v)] tells where underlying node [v] of the input went.
    Isolated nodes are placed on the left. *)

val is_connected : t -> bool
(** O(n + m) over the CSR. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val pp_node : Format.formatter -> node -> unit
