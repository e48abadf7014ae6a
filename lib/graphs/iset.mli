(** Sets of integers, used throughout for node and edge identifiers.

    This is [Set.Make (Int)] extended with a few conveniences that the
    graph and hypergraph code needs everywhere: construction from lists
    and arrays, a range constructor, and printing. *)

include Set.S with type elt = int

val of_array : int array -> t

val range : int -> t
(** [range n] is the set [{0, 1, ..., n-1}]; empty when [n <= 0]. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{0, 3, 7}]. *)

val to_string : t -> string
