(** Covers of a node set (Definition 10) and (non)redundant paths.

    All node sets are expressed as underlying-graph indices. The
    "minimum" predicates are brute force and exist as oracles for
    Lemmas 4/5 and the test suite. *)

open Graphs

val is_cover : Ugraph.t -> p:Iset.t -> Iset.t -> bool
(** The induced subgraph is connected and contains [p]. *)

val is_nonredundant_cover : Ugraph.t -> p:Iset.t -> Iset.t -> bool
(** A cover from which no single node can be dropped. *)

val is_side_nonredundant_cover :
  Ugraph.t -> p:Iset.t -> side:Iset.t -> Iset.t -> bool
(** No node {e of the given side} can be dropped (the paper's
    V₁-/V₂-nonredundant covers). *)

val nonredundant_covers_brute :
  Ugraph.t -> within:Iset.t -> p:Iset.t -> Iset.t list
(** All nonredundant covers inside [within]; exponential. *)

val minimum_cover_size_brute : Ugraph.t -> within:Iset.t -> p:Iset.t -> int option
(** Size of a minimum cover; [None] when [p] is not connected within. *)

val side_minimum_brute :
  Ugraph.t -> within:Iset.t -> p:Iset.t -> side:Iset.t -> int option
(** Minimum number of side-nodes over all covers. *)

(** What one elimination candidate removes: the node alone (Algorithm 2,
    Definition 11's good orderings), or the node together with
    Adj*(v), its neighbors no other present node is adjacent to
    (Algorithm 1's Step 2). *)
type drop = Node | Node_and_private

val eliminate :
  ?budget:Runtime.Budget.t ->
  ?steps:Observe.Metrics.counter ->
  drop:drop ->
  Csr.t ->
  p:Iset.t ->
  int list ->
  Iset.t
(** [eliminate ~drop csr ~p order] is the one elimination fixpoint of
    Algorithms 1 and 2. Every node of [csr] starts present; scan
    [order] and drop each candidate (a present non-terminal) whose
    removal, per [drop], leaves [p] connected with every present node;
    re-scan until a pass drops nothing. Requires [p] inside the graph;
    returns the survivors. One [Budget.check] and
    one [steps] increment (both default inert) per considered
    candidate; exhaustion raises the internal
    [Runtime.Budget.Exhausted] signal (inputs are immutable, so
    nothing partial is left behind). Node sets are dense bitsets and
    connectivity an array BFS: one pass costs O(|order| · (n + m)). *)

val seed : Csr.t -> p:Iset.t -> int array option
(** [seed csr ~p] is the one seed cover: the union of the parent paths
    of one BFS from the least terminal (rows scanned ascending), cut
    short once every terminal is discovered, as ascending ids for
    {!Graphs.Csr.induced}. It is connected and holds [p], and on a
    forest it {e is} the unique minimal connection. [Some [||]] for
    empty [p]; [None] when a terminal is out of range or unreached.
    O(n) words; time O(the part of the graph the BFS visits). *)

val slice :
  ?order:int list -> Ugraph.t -> within:Iset.t -> Csr.t * int array * int list
(** [slice ?order g ~within] cuts the subgraph induced by [within] out
    of the set view as a CSR of its own, renumbered ascending; returns
    it with its id array (local [i] is [ids.(i)], inverted by
    {!Graphs.Csr.local_index}) and [order] (default increasing)
    restricted to [within] in local ids. The set-view front door of
    {!eliminate_redundant} and {!Dreyfus_wagner.solve}. *)

val eliminate_redundant :
  ?order:int list ->
  ?budget:Runtime.Budget.t ->
  ?steps:Observe.Metrics.counter ->
  Ugraph.t ->
  within:Iset.t ->
  p:Iset.t ->
  Iset.t
(** {!eliminate} with [~drop:Node] on the subgraph induced by [within],
    cut out as a CSR of its own: scan the nodes (in [order], default
    increasing; nodes outside [within] and terminals are skipped) and
    drop each whose removal leaves a cover of [p] — the core move of
    Algorithm 2 and of Definition 11's "good orderings". Requires [p]
    connected within; returns a nonredundant cover. Budget and [steps]
    as {!eliminate}. *)

val is_nonredundant_path : Ugraph.t -> int list -> bool
(** The path's node set induces a nonredundant cover of its two
    endpoints. *)

val all_paths : ?max_len:int -> Ugraph.t -> int -> int -> int list list
(** All simple paths between two nodes; exponential. *)

val nonredundant_nonminimum_pair :
  Ugraph.t -> (int * int * int list) option
(** A witness for Lemma 4's criterion failing: endpoints plus a
    nonredundant path strictly longer than their distance. *)
