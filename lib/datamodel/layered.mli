(** Multi-level conceptual hierarchies.

    The paper closes its introduction observing that the bipartite
    results apply to any conceptual model in which "concepts belonging
    to each level of the conceptual hierarchy are defined only in terms
    of objects of the underlying level": stacking the levels and
    2-colouring them by parity makes the object graph bipartite, with
    even levels on one side and odd levels on the other.

    This module models such hierarchies — level 0 objects are primitive
    (attributes); every higher object is defined by aggregating objects
    exactly one level below — and maps them onto {!Bipartite.Bigraph}
    so the whole chordality/Steiner machinery applies unchanged. *)

open Bipartite

type t

val make : levels:string list list -> definitions:(string * string list) list -> t
(** [levels] lists the object names per level, level 0 first.
    [definitions] gives, for every object above level 0, the objects of
    the level immediately below that define it. Raises
    [Invalid_argument] on duplicate names, duplicate definition entries,
    missing definitions, references that skip levels, or empty
    definitions. *)

val n_levels : t -> int

val objects : t -> string list

val level_of : t -> string -> int option

val to_bigraph : t -> Bigraph.t
(** Even-parity levels are V₁ (left), odd-parity levels V₂ (right);
    edges connect each object to its defining objects. Served from the
    lazily-built {!compiled} handle, so repeated calls return the same
    graph without re-materialising it. *)

val compiled : t -> Engine.Compiled.t
(** The hierarchy compiled for serving (bigraph, CSR arena,
    components with their profile memos), built on first use
    and cached in the record. *)

val object_index : t -> string -> int option
(** Underlying index in {!to_bigraph}'s graph. *)

val object_name : t -> int -> string

val profile : t -> Classify.profile
(** {!Engine.Compiled.profile} of {!compiled}: each component is
    classified at most once per hierarchy value, by this call or by the
    first query that lands in it. *)

val minimal_connection :
  t ->
  objects:string list ->
  (string list * (string * string) list, Runtime.Errors.t) result
(** Exact minimal connection over the named objects (the conceptual
    navigation). Unknown names and over-cap queries are
    [Error (Invalid_instance _)]; objects in different components are
    [Error Disconnected_terminals]. *)

val interpretations : ?k:int -> t -> objects:string list -> string list list
