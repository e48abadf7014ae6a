(** Dense mutable bitsets over [{0, ..., len - 1}].

    The flat membership sets of the Steiner kernels ([Steiner.Cover],
    [Steiner.Tree], [Steiner.Algorithm2]): [mem], [add] and
    [remove] are O(1) on packed machine words and allocate nothing.
    Out-of-range indices raise [Invalid_argument]. *)

type t

val create : int -> t
(** [create len] is the empty set over [{0, ..., len - 1}]. *)

val mem : t -> int -> bool

val add : t -> int -> unit
(** In place. *)

val remove : t -> int -> unit
(** In place. *)

val min_elt_opt : t -> int option

val to_iset : t -> Iset.t
