(** Typed schema deltas — the mutation API of the bipartite scheme.

    Live conceptual schemas evolve: attributes gain and lose
    memberships, relations appear and disappear. A delta is one such
    edit, expressed against the current index space of the graph it is
    applied to:

    - [Add_edge (i, j)] / [Remove_edge (i, j)]: connect or disconnect
      left (attribute) index [i] and right (relation) index [j].
    - [Add_relation attrs]: append a fresh relation over the given left
      indices; it receives right index [nr g] — no existing index
      moves.
    - [Remove_relation j]: delete relation [j] and its edges; right
      indices above [j] shift down by one.

    Applying a delta is index-validated and total otherwise; re-adding
    a present edge or removing an absent one is a {e no-op} that
    returns the input graph physically unchanged, which is what lets
    {!Engine.Compiled.apply_delta} prove that no component was dirtied. *)

open Graphs

type op =
  | Add_edge of int * int
  | Remove_edge of int * int
  | Add_relation of Iset.t
  | Remove_relation of int

val apply : Bigraph.t -> op -> (Bigraph.t, string) result
(** Validate indices and apply. No-ops return the graph physically
    unchanged ([==]); [Error] messages name the op and the offending
    index. *)

val apply_all : Bigraph.t -> op list -> (Bigraph.t, string) result
(** Left fold of {!apply}; the error message is prefixed with the
    1-based position of the failing delta. *)

val to_string : op -> string
(** Canonical rendering ([+edge 0 2], [-relation 1], ...). *)

val pp : Format.formatter -> op -> unit
