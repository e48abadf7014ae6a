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
    ({!Graphs.Csr.component_ids}), then runs {!prepare} and
    {!solve_prepared}. [trace] records an
    ["algorithm1.join_tree"] span and an ["algorithm1"] span with an
    ["algorithm1.eliminate"] child. *)

(** {2 Compile-once / query-many}

    Step 1 (the α kernel and the Lemma 1 ordering) depends only on the
    component, not on the terminal set. A session answering many
    terminal-set queries over one schema computes the [prep] once per
    component and reuses it for every query. *)

type prep
(** A component together with its Lemma 1 ordering W. *)

val prepare :
  ?trace:Observe.Trace.t ->
  ?slice:Bigraph.t * int array ->
  Bigraph.t ->
  comp:Iset.t ->
  (prep, error) Stdlib.result
(** Step 1 for the component [comp] (as returned by
    {!Graphs.Traverse.component_containing} or
    {!Graphs.Traverse.component_ids}): W is the reversed
    {!Hypergraphs.Mcs.incidence} order on the CSR of [slice]
    ([Bigraph.induced g comp] unless the caller cut it), which is the
    component's H¹; [Error Not_alpha_acyclic] off α. Records an
    ["algorithm1.join_tree"] span. *)

val prep_order : prep -> int list
(** The Lemma 1 ordering W held by the prep (empty for trivial
    components). *)

val solve_prepared :
  ?trace:Observe.Trace.t ->
  Bigraph.t ->
  prep ->
  p:Iset.t ->
  (result, error) Stdlib.result
(** Steps 2–3 on an already-prepared component. [p] must lie inside the
    prep's component (the caller has established connectivity). The
    work runs on the component's induced slice
    ({!Bipartite.Bigraph.induced}), so it costs the component, not the
    graph: Step 2 is {!Cover.eliminate} with [~drop:Node_and_private]
    over W, un-budgeted. *)

val solve_wrt_v1 : Bigraph.t -> p:Iset.t -> (result, error) Stdlib.result
(** Same algorithm on the flipped graph: minimises left nodes, licensed
    when H² is α-acyclic. [v2_count] then counts V₁ nodes and all
    indices refer to the original graph. *)
