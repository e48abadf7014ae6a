(** Algorithm 1 (Theorem 3/4): pseudo-Steiner trees w.r.t. V₂ on
    V₂-chordal, V₂-conformal (= α-acyclic H¹) bipartite graphs in
    O(|V|·|A|) — in database terms, answer a query over an α-acyclic
    schema touching the minimum number of relations.

    Step 1 computes the Lemma 1 elimination ordering of the right
    nodes: the reverse of a running-intersection ordering of H¹'s
    hyperedges, the {!Hypergraphs.Mcs} order. Step 2 scans the
    ordering and deletes each right node [v] together with [Adj*(v)]
    (its private left neighbors) whenever the remainder still covers
    the terminals. Step 3 returns a spanning tree. *)

open Graphs
open Bipartite

type error =
  | Disconnected_terminals
      (** the terminals do not lie in one component *)
  | Not_alpha_acyclic
      (** the terminal component is not V₂-chordal V₂-conformal, so the
          Lemma 1 ordering does not exist and the guarantee is void *)

val to_error : error -> Runtime.Errors.t
(** The one mapping onto the stack's error taxonomy, shared by
    [Minconn.solve_min_relations] and [Engine.Session.query_relations]:
    [Disconnected_terminals] stays itself and [Not_alpha_acyclic]
    becomes an [Invalid_instance] naming the failed side properties. *)

type result = {
  tree : Tree.t;
  v2_count : int;  (** number of right nodes in the tree — the paper's
                       minimised objective *)
  elimination_order : int list;
      (** the Lemma 1 ordering W actually used (underlying indices of
          right nodes) *)
}

val solve :
  ?trace:Observe.Trace.t -> Bigraph.t -> p:Iset.t -> (result, error) Stdlib.result
(** [p] contains underlying indices (left or right nodes). Finds the
    terminals' component in the CSR's component layout
    ({!Graphs.Csr.components}), cuts it out with
    {!Bipartite.Bigraph.slice}, runs {!solve_slice} on that slice and
    maps the result back with {!relabel}. *)

(** {2 One slice, one terminal set}

    Step 1 (the α kernel and the Lemma 1 ordering) depends only on the
    component, not on the terminal set, but no caller asks a component
    more than one terminal set per plan, and the α test is linear in the
    component — less than Step 2's elimination. So the plan keeps no W:
    every call derives it on the terminals' slice, the component cut out
    as a graph of its own ({!Bipartite.Bigraph.induced}, which renumbers
    ascending), and speaks that slice's ids. *)

val solve_slice :
  ?trace:Observe.Trace.t -> Bigraph.t -> p:Iset.t -> (result, error) Stdlib.result
(** Steps 1–3 on a connected slice, with [p] in its ids (the caller has
    established connectivity). Step 1 takes W as the reversed
    {!Hypergraphs.Mcs.incidence} order on the slice's CSR, which is the
    component's H¹, and answers [Error Not_alpha_acyclic] off α. Step 2
    is {!Cover.eliminate} with [~drop:Node_and_private] over W,
    un-budgeted. The result is in slice ids; {!relabel} maps it back.
    [trace] records an ["algorithm1.join_tree"] span and an
    ["algorithm1"] span with an ["algorithm1.eliminate"] child (neither
    on a slice of at most one node). *)

val relabel : int array -> result -> result
(** [relabel ids r] maps a slice result's tree and elimination order
    through the slice's id array. *)

val solve_wrt_v1 : Bigraph.t -> p:Iset.t -> (result, error) Stdlib.result
(** Same algorithm on the flipped graph: minimises left nodes, licensed
    when H² is α-acyclic. [v2_count] then counts V₁ nodes and all
    indices refer to the original graph. *)
