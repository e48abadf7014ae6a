(** Cycle detection, enumeration and chord counting.

    Enumeration of all simple cycles is exponential in general; it is
    used only as a brute-force oracle on small instances to validate the
    polynomial recognisers, and by the figure reconstructions. *)

val is_acyclic : ?within:Iset.t -> Ugraph.t -> bool
(** No cycle in the induced subgraph (i.e. it is a forest). *)

val find_cycle : ?within:Iset.t -> Ugraph.t -> int list option
(** Some simple cycle as a node list [v1; ...; vk] (with [vk] adjacent
    to [v1]), or [None] for forests. *)

val iter_simple_cycles :
  ?within:Iset.t -> ?min_len:int -> ?max_len:int -> Ugraph.t ->
  (int list -> unit) -> unit
(** Calls the function once per simple cycle (each cycle reported
    exactly once, starting at its smallest node, in the orientation
    whose second node is smaller than its last). [min_len] defaults to
    3, [max_len] to no bound. *)

val simple_cycles :
  ?within:Iset.t -> ?min_len:int -> ?max_len:int -> Ugraph.t -> int list list

val chords : Ugraph.t -> int list -> (int * int) list
(** [chords g cycle] lists the edges of [g] joining two non-consecutive
    nodes of the cycle. *)

val exists_cycle_with_few_chords : Ugraph.t -> min_len:int -> max_chords:int -> bool
(** Brute-force witness search for the failure of [(m, n)]-chordality:
    a cycle of length at least [min_len] with at most [max_chords]
    chords. Exponential in the worst case; runs on a flat {!Csr}
    adjacency with incremental chord counting, which prunes every
    branch whose partial path already carries too many chords. *)

val girth : ?within:Iset.t -> Ugraph.t -> int option
(** Length of a shortest cycle, [None] for forests. Polynomial (BFS from
    every node). *)
