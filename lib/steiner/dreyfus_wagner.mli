(** Exact Steiner trees via the Dreyfus–Wagner dynamic program (1971),
    minimising the total weight of the tree's nodes — with unit weights,
    the number of nodes, equivalently (for a tree) of edges. The
    node-weighted form prices the paper's concepts by a disclosure cost
    ({!Datamodel.Query.weighted_connection}).

    One kernel, {!solve_csr}, on a CSR: flat [2^t · n] cost and
    reconstruction tables, a Dijkstra relax per terminal subset over
    the sorted rows, the singleton rows giving the shortest paths from
    each terminal. The relax queues on Dial's buckets when the total
    weight is at most n + 2m (always with unit weights), else on a
    radix heap that pops in the same order. Cost
    O(3^t · n + 2^t · (n + m) · b) time for b-bit costs (no b factor on
    Dial's side; either way it does not grow with the cost values) and
    O(2^t · n + m) memory: exponential in the terminal count only,
    which is exactly the baseline shape the paper's NP-hardness results
    predict (Theorem 2) and against which the polynomial Algorithms 1
    and 2 are benchmarked. (The set-view DP it
    replaced ran a BFS from every node and kept an n × n distance
    matrix: Θ(n · m) time and Θ(n²) memory on top of the DP.) *)

open Graphs

val max_terminals : int
(** Guard on [2^t] table size (17). *)

val max_total_weight : int
(** Guard on integer overflow: the largest total of explicit node
    weights {!solve_csr} accepts ([max_int / 8]), so that no cost the
    DP forms reaches its internal infinity. *)

val total_weight : int array -> int option
(** The sum of the weights; [None] when one is negative or the sum
    exceeds {!max_total_weight}. *)

val solve_csr :
  ?weight:int array ->
  ?budget:Runtime.Budget.t ->
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  Csr.t ->
  terminals:Iset.t ->
  Tree.t option
(** A minimum-weight tree of the CSR spanning the terminals; [None]
    when the terminals are not connected or not all nodes of the CSR.
    [weight.(v)] is node v's nonnegative integer weight (default 1 for
    every node, through the same code); a tree costs the sum of its
    nodes' weights. Raises [Invalid_argument] when [weight] does not
    have one entry per node or fails {!total_weight}, and beyond
    {!max_terminals} (connected terminals only). Zero or one terminal
    yield the trivial tree. Ties break toward smaller ids (the least
    optimal root, the least predecessor on a path that the terminal's
    shortest-path pass settled earlier, the latest improving push
    among equal costs), and the tree is the BFS spanning tree of the
    collected nodes ({!Tree.of_csr_node_set}). One fuel unit of
    [budget] is spent per DP subset expansion (a settled node in a
    relax pass or a merge cell — every node of the CSR, per subset);
    exhaustion raises the internal [Runtime.Budget.Exhausted] signal
    for the runtime boundary to catch. [trace] records a
    ["dreyfus_wagner"] span (terminal count, mask count, table cells);
    [metrics] fills the [dp.table_size] histogram. A reconstruction
    inconsistency degrades to [None] rather than crashing. Builds no
    set view. *)

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
