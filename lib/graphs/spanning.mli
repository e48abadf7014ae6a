(** Spanning trees and forests (unweighted). *)

val spanning_tree : ?within:Iset.t -> Ugraph.t -> (int * int) list option
(** BFS spanning tree of the induced subgraph: [Some edges] when the
    subgraph is connected ([Some []] for 0 or 1 nodes), [None]
    otherwise. *)

val spanning_forest : ?within:Iset.t -> Ugraph.t -> (int * int) list
(** One BFS tree per component. *)

val is_tree : ?within:Iset.t -> Ugraph.t -> bool
(** The induced subgraph is connected and has exactly [|V'| - 1] edges.
    The empty subgraph counts as a tree. *)

val tree_check : Ugraph.t -> over:Iset.t -> (int * int) list -> bool
(** [tree_check g ~over es] verifies that [es] are edges of [g] forming
    a tree whose node set is exactly [over]. Used by the test suite to
    validate every Steiner-tree output. *)

val tree_check_by :
  (int -> int -> bool) -> over:Iset.t -> (int * int) list -> bool
(** {!tree_check} against any edge-membership test, e.g. a CSR's
    [Csr.mem_edge]. *)
