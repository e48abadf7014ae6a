(** Dense mutable bitsets over [{0, ..., len - 1}].

    The flat kernel counterpart of {!Iset}: membership, intersection
    cardinality and set combination run over packed machine words, so
    the hot algorithm ports ([Hypergraphs.Conformal], [Steiner.Cover])
    pay O(len / word_size) per set operation and allocate nothing on
    their inner loops. All binary operations require both operands to
    have the same [length] and raise [Invalid_argument] otherwise, as
    do out-of-range indices. *)

type t

val create : int -> t
(** [create len] is the empty set over [{0, ..., len - 1}]. *)

val length : t -> int
(** The universe size the set was created with (not its cardinality). *)

val copy : t -> t

val clear : t -> unit
(** Empty the set in place. *)

val assign : dst:t -> src:t -> unit
(** Overwrite [dst] with the contents of [src] (same length). *)

val mem : t -> int -> bool

val add : t -> int -> unit
(** In place. *)

val remove : t -> int -> unit
(** In place. *)

val card : t -> int
(** Population count. *)

val is_empty : t -> bool

val equal : t -> t -> bool

val subset : t -> t -> bool

val inter_card : t -> t -> int
(** [inter_card a b] is [card (inter a b)] without allocating. *)

val disjoint : t -> t -> bool

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

val union_into : t -> t -> unit
(** [union_into a b] sets [a <- a ∪ b] in place; similarly below. *)

val inter_into : t -> t -> unit

val diff_into : t -> t -> unit

val iter : (int -> unit) -> t -> unit
(** Ascending order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending order, like [Iset.fold]. *)

val min_elt_opt : t -> int option

val of_iset : len:int -> Iset.t -> t
(** Raises [Invalid_argument] if the set contains an element outside
    [{0, ..., len - 1}]. *)

val to_iset : t -> Iset.t

val elements : t -> int list
(** Ascending order. *)

val pp : Format.formatter -> t -> unit
