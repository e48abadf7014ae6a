(** Compressed sparse row adjacency.

    Built once — from a {!Ugraph} ([of_ugraph], O(n + m)) or directly
    from an edge stream ([of_edge_iter] / [of_edges] / {!Builder},
    which never materialise per-node sets) — and then read-only:
    neighbor lists live back to back in one flat array, sorted
    ascending, so traversal is sequential memory access and edge
    membership is a binary search. *)

type t

val of_ugraph : Ugraph.t -> t

val of_edge_iter : n:int -> ((int -> int -> unit) -> unit) -> t
(** [of_edge_iter ~n iter] builds the adjacency directly from an edge
    stream in two passes (degree count, then fill) followed by an
    in-place sort-unique per row — no intermediate sets, no edge list.
    It allocates the row-offset and neighbour arrays it returns and
    one n-word fill cursor; the deduplicated rows are compacted in
    place over both returned arrays.
    [iter f] must call [f u v] once per undirected edge occurrence and
    must replay the {e same} stream on both invocations (checked: a
    second pass that gives any node another number of edge endpoints
    than the first raises [Invalid_argument]). Duplicate and
    out-of-order edges are fine (collapsed by the per-row dedup);
    self-loops and out-of-range endpoints raise [Invalid_argument]. *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edge_iter] over a concrete list. Same tolerance for duplicates
    and ordering as {!of_edge_iter}. *)

val splice :
  ?drop:int -> t -> n:int -> add:(int * int) list -> remove:(int * int) list -> t
(** [splice ?drop t ~n ~add ~remove] edits [t] into a graph on [n]
    nodes: node [drop], when given, goes with its edges and every index
    above it shifts down by one; nodes past the survivors start
    isolated; then the pairs of [remove] are deleted and those of [add]
    inserted, both in the result's indices. Removing an absent edge or
    adding a present one changes nothing, and a pair in both lists ends
    present. The result is canonical (it {!equal}s {!of_edges} of the
    same edge set), but it is spliced, not rebuilt: the rows the edit
    touches are merged, every other run of rows is copied with one
    [Array.blit] and never re-sorted. It allocates the returned arrays
    and the touched rows. Raises [Invalid_argument] on an out-of-range
    [drop], [n] below the surviving node count, or a pair that is a
    self-loop or out of range. *)

val induced : t -> int array -> t
(** [induced t ids] is the subgraph induced by the nodes of the
    ascending array [ids], with node [ids.(i)] renumbered [i]. One pass
    over the members' rows, O(size of the slice · log |ids|). *)

val local_index : int array -> int -> int
(** [local_index ids v] is the [i] with [ids.(i) = v] — the inverse of
    an {!induced} renumbering, by binary search over the ascending
    array. Raises [Not_found] when [v] is not in [ids]. *)

val equal : t -> t -> bool
(** Structural equality — and canonical: any two constructions of the
    same graph (whatever edge order or duplication built them) yield
    identical arrays. *)

val digest : tag:int -> t -> Digest.t
(** MD5 of [tag], the sizes and the row and column arrays,
    each as an 8-byte little-endian int. The arrays are canonical (see
    {!equal}), so equal graphs digest equally. *)

(** {2 Connected components}

    Every profile a plan stores is decided one component at a time, so
    components are laid out flat: [label] maps a node to its component,
    [order] lists the nodes grouped by component, and component [c]
    occupies [order.(start.(c)) .. order.(start.(c + 1) - 1)]. *)

type components = {
  label : int array;
      (** node → component id; components are numbered by ascending
          smallest node, as [Traverse.component_ids] numbers them *)
  order : int array;
      (** the nodes grouped by component, ascending within each group *)
  start : int array;
      (** where each component begins in [order]; one more entry than
          there are components, the last being [n] *)
}

val components : t -> components
(** One BFS labelling and one counting pass, O(n + m). *)

val n_components : components -> int

val members : components -> int -> int array
(** [members cs c]: component [c]'s nodes, ascending (a fresh copy of
    its segment of [order]). *)

val slice : t -> components -> local:int array -> int -> t
(** [slice t cs ~local c] is component [c] as a graph of its own, its
    member [order.(start.(c) + i)] renumbered [i]: the same graph as
    [induced t (members cs c)], cut in O(size of the component) with no
    search. [local] is scratch of length [n t] shared by the calls on
    one layout; on return, [local.(v)] is [v]'s new index for every
    member [v] of [c]. A component holding every node is [t] itself. *)

val n : t -> int
val m : t -> int

val degree : t -> int -> int

val sorted_neighbors : t -> int -> int array
(** Fresh copy of the neighbor row, ascending. Prefer
    {!iter_neighbors} / {!fold_neighbors} in hot loops. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Ascending order, no allocation. *)

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val for_all_neighbors : t -> int -> (int -> bool) -> bool
(** Ascending order, stopping at the first neighbor that fails. *)

val mem_edge : t -> int -> int -> bool
(** Binary search in the neighbor row: O(log degree). *)

val to_ugraph : t -> Ugraph.t
(** Round-trip back to the set-based representation. Linear: each
    sorted row becomes an adjacency set without per-edge AVL inserts,
    so deriving the set view of a component slice on request is cheap
    enough for the remaining set-based consumers. *)

module Builder : sig
  type csr := t
  type t

  val create : ?hint:int -> int -> t
  (** [create ?hint n]: an empty edge buffer over nodes [0..n-1];
      [hint] pre-sizes the buffer (edge count, not bytes). *)

  val add_edge : t -> int -> int -> unit
  (** Append one undirected edge. Duplicates are fine (collapsed at
      {!build}); self-loops and out-of-range endpoints raise. *)

  val length : t -> int
  (** Edges appended so far (before dedup). *)

  val build : t -> csr
  (** Two-pass count/fill over the buffered edges plus per-row
      sort-unique — the buffer is the only intermediate state. *)
end
