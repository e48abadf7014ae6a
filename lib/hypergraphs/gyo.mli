(** Graham / Yu–Özsoyoğlu (GYO) reduction: the classical test for
    α-acyclicity.

    The reduction repeatedly (a) deletes nodes that belong to exactly
    one remaining edge and (b) deletes edges contained in another
    remaining edge. A hypergraph is α-acyclic iff the reduction deletes
    every edge. Each round recounts occurrences and compares every pair
    of edges, so no path that decides α or builds a join tree runs it
    ({!Mcs} does, in linear time): it remains as the stuck-edge witness
    of {!Acyclicity.why_not} and as an independent oracle for tests. *)

open Graphs

type trace = {
  survivors : Iset.t array;  (** shrunken content of surviving edges *)
  surviving_edges : int list;  (** original indices still present *)
  parent : int array;
      (** for each original edge index, the edge it was absorbed into,
          or [-1] if it survived or was emptied last *)
}

val run : Hypergraph.t -> trace

val alpha_acyclic : Hypergraph.t -> bool
