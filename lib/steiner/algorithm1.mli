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
    terminals' component in the CSR's component labelling
    ({!Graphs.Csr.component_ids}), cuts it out with
    {!Bipartite.Bigraph.induced}, runs {!prepare} and {!solve_prepared}
    on that slice and maps the result back with {!relabel}. [trace]
    records an ["algorithm1.join_tree"] span and an ["algorithm1"] span
    with an ["algorithm1.eliminate"] child. *)

(** {2 Compile-once / query-many}

    Step 1 (the α kernel and the Lemma 1 ordering) depends only on the
    component, not on the terminal set. A session answering many
    terminal-set queries over one schema computes the [prep] once per
    component and reuses it for every query. Both steps run on the
    component's slice — the component cut out as a graph of its own
    ({!Bipartite.Bigraph.induced}, which renumbers ascending) — and
    speak its ids. *)

type prep
(** The component's Lemma 1 ordering W, in slice ids. *)

val prepare :
  ?trace:Observe.Trace.t -> Bigraph.t -> (prep, error) Stdlib.result
(** Step 1 on a connected slice: W is the reversed
    {!Hypergraphs.Mcs.incidence} order on its CSR, which is the
    component's H¹; [Error Not_alpha_acyclic] off α. Records an
    ["algorithm1.join_tree"] span. *)

val prep_order : prep -> int list
(** The Lemma 1 ordering W held by the prep, in the ids of the slice it
    was computed on (empty for trivial components). *)

val solve_prepared :
  ?trace:Observe.Trace.t ->
  Bigraph.t ->
  prep ->
  p:Iset.t ->
  (result, error) Stdlib.result
(** Steps 2–3 on the slice [prepare] ran on, with [p] in its ids (the
    caller has established connectivity). Step 2 is {!Cover.eliminate}
    with [~drop:Node_and_private] over W, un-budgeted. The result is in
    slice ids; {!relabel} maps it back. *)

val relabel : int array -> result -> result
(** [relabel ids r] maps a slice result's tree and elimination order
    through the slice's id array. *)

val solve_wrt_v1 : Bigraph.t -> p:Iset.t -> (result, error) Stdlib.result
(** Same algorithm on the flipped graph: minimises left nodes, licensed
    when H² is α-acyclic. [v2_count] then counts V₁ nodes and all
    indices refer to the original graph. *)
