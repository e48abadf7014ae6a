(** Exact unweighted Steiner trees via the Dreyfus–Wagner dynamic
    program (1971), minimising the number of edges — equivalently, for a
    tree, the number of nodes.

    One kernel, {!solve_csr}, on a CSR: a BFS from each of the [t]
    terminals only, flat [2^t · n] cost and reconstruction tables, a
    bucket-queue relax per terminal subset over the sorted rows. Cost
    O(3^t · n + 2^t · (n + m)) time and O(2^t · n + m) memory:
    exponential in the terminal count only, which is exactly the
    baseline shape the paper's NP-hardness results predict (Theorem 2)
    and against which the polynomial Algorithms 1 and 2 are
    benchmarked. (The set-view DP it replaced ran a BFS from every node
    and kept an n × n distance matrix: Θ(n · m) time and Θ(n²) memory
    on top of the DP.) *)

open Graphs

val max_terminals : int
(** Guard on [2^t] table size (17). *)

val solve_csr :
  ?budget:Runtime.Budget.t ->
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  Csr.t ->
  terminals:Iset.t ->
  Tree.t option
(** A minimum-node tree of the CSR spanning the terminals; [None] when
    the terminals are not connected or not all nodes of the CSR.
    Raises [Invalid_argument] beyond {!max_terminals} (connected
    terminals only). Zero or one terminal yield the trivial tree. Ties
    break toward smaller ids (the least optimal root, the least
    predecessor on a path, the first improving push in LIFO bucket
    order), and the tree is the BFS spanning tree of the collected
    nodes ({!Tree.of_csr_node_set}). One fuel unit of [budget] is spent
    per DP subset expansion (a settled node in a relax pass or a merge
    cell — every node of the CSR, per subset); exhaustion raises the
    internal [Runtime.Budget.Exhausted] signal for the runtime boundary
    to catch. [trace] records a ["dreyfus_wagner"] span (terminal
    count, mask count, table cells); [metrics] fills the
    [dp.table_size] histogram. A reconstruction inconsistency degrades
    to [None] rather than crashing. Builds no set view. *)

val solve :
  ?within:Iset.t ->
  ?budget:Runtime.Budget.t ->
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  Ugraph.t ->
  terminals:Iset.t ->
  Tree.t option
(** {!solve_csr} on the subgraph induced by [within] (default: all
    nodes), cut out as a CSR renumbered ascending ({!Cover.slice}) and
    mapped back with {!Tree.relabel}: [None] when a terminal lies
    outside [within] or the terminals are not connected in it. The
    renumbering is monotone, so the tree and the fuel spent are those
    of a run on [g] itself; the span's table cells count [within]'s
    nodes. *)

val optimum_nodes :
  ?within:Iset.t ->
  ?budget:Runtime.Budget.t ->
  Ugraph.t ->
  terminals:Iset.t ->
  int option
(** Just the optimal node count. *)
