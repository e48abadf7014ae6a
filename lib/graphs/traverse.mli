(** Traversals, connectivity and unweighted shortest paths.

    Every function takes an optional [within] set; nodes outside it are
    treated as deleted, so connectivity of induced subgraphs — the basic
    test in the paper's Algorithms 1 and 2 — never requires
    materialising the subgraph. When omitted, [within] defaults to all
    nodes of the graph. *)

val bfs : ?within:Iset.t -> Ugraph.t -> int -> int array
(** [bfs g s] returns the array of BFS distances from [s]; unreachable
    nodes (including nodes outside [within]) get [-1]. *)

val component : ?within:Iset.t -> Ugraph.t -> int -> Iset.t
(** Connected component of [s] in the induced subgraph. *)

val components : ?within:Iset.t -> Ugraph.t -> Iset.t list
(** All connected components of the induced subgraph. *)

val component_ids : ?within:Iset.t -> Ugraph.t -> int array * Iset.t list
(** One BFS sweep shared by many later membership queries: [ids.(v)] is
    the index of [v]'s component in the returned list ([-1] for nodes
    outside [within]). Whether a node set lies in one component is then
    O(|set|) instead of a fresh traversal. *)

val is_connected : ?within:Iset.t -> Ugraph.t -> bool
(** The induced subgraph is connected. Vacuously true when [within] is
    empty. *)

val connects : ?within:Iset.t -> Ugraph.t -> Iset.t -> bool
(** [connects g p] holds when all nodes of [p] lie in one connected
    component of the induced subgraph; requires [p] to be a subset of
    [within]. *)

val component_containing : ?within:Iset.t -> Ugraph.t -> Iset.t -> Iset.t option
(** The component containing all of [p], if [p] is indeed contained in a
    single component ([None] otherwise, or if some node of [p] is not in
    [within]). [Some] of the whole induced node set when [p] is empty and
    the subgraph is connected; for empty [p] on a disconnected subgraph,
    the first component is returned. *)

val shortest_path : ?within:Iset.t -> Ugraph.t -> int -> int -> int list option
(** A shortest path from [s] to [t] as a node list [s; ...; t]. *)

val distance : ?within:Iset.t -> Ugraph.t -> int -> int -> int option
