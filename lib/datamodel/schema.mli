(** Relational database schemes as named objects over a bipartite graph:
    left nodes are attributes, right nodes are relation schemes — the
    representation Section 3 uses for logical-independence queries. *)

open Hypergraphs
open Bipartite

type t

val make : (string * string list) list -> t
(** [(relation name, attributes)] pairs. Raises [Invalid_argument] on
    duplicate relation names, empty relations, or a name collision
    between a relation and an attribute. *)

val of_database : Relalg.Database.t -> t

val relation_names : t -> string list

val attributes : t -> string list
(** Sorted. *)

val relation_attrs : t -> string -> string list
(** Raises [Not_found]. *)

val to_bigraph : t -> Bigraph.t
(** Left node [i] = i-th attribute of {!attributes}; right node [j] =
    j-th relation of {!relation_names}. Served from the lazily-built
    {!compiled} handle, so repeated calls return the same graph without
    re-materialising it. *)

val compiled : t -> Engine.Compiled.t
(** The schema compiled for serving (bigraph, CSR arena, components
    with their profile memos), built on first use and cached in the
    schema record; feed it to [Engine.Session.create] to answer query
    batches. *)

val to_hypergraph : t -> Hypergraph.t

val object_index : t -> string -> int option
(** Underlying graph index of an attribute or relation name. *)

val object_name : t -> int -> string
(** Inverse of {!object_index}; raises [Invalid_argument] when out of
    range. *)

val is_attribute : t -> string -> bool

val profile : t -> Classify.profile
(** {!Engine.Compiled.profile} of {!compiled}: each component is
    classified at most once per schema value, by this call or by the
    first query that lands in it. *)

val acyclicity : t -> Acyclicity.degree
(** Degree of the scheme hypergraph. *)

val pp : Format.formatter -> t -> unit
