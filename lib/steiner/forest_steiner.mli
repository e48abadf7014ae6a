(** Steiner trees on forests — the (4,1)-chordal / Berge-acyclic row of
    the paper's complexity table, where the minimal connection is
    {e unique}: the union of the tree paths between terminals. Linear
    time, no search. *)

open Graphs

val solve_csr : Csr.t -> terminals:Iset.t -> Tree.t option
(** The one body, on a {e connected} CSR (a component slice, as
    {!Engine.Session} holds it): [None] unless it is a tree
    (m = n − 1) holding every terminal; otherwise one queue pass prunes
    non-terminal leaves and {!Tree.of_csr_node_set} spans what is
    left. O(n + m), no set view. *)

val solve : Ugraph.t -> terminals:Iset.t -> Tree.t option
(** [None] when the graph restricted to the terminals' component is not
    a tree (callers guard with {!Graphs.Cycles.is_acyclic}) or the
    terminals are disconnected. The terminals' component is cut out as
    a CSR ({!Cover.slice}), run through {!solve_csr} and mapped
    back. *)
