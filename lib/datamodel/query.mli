(** Minimal conceptual connections for queries stated as object names
    (Section 3's logical-independence interface over relational
    schemes).

    A query is a set of attribute and/or relation names; a connection
    is a tree of the scheme's bipartite graph over those objects.
    [minimal_connection] answers through the engine's one ladder
    ({!Engine.Session.query} on {!Schema.compiled}), which follows the
    paper's complexity map:

    - (4,1)-chordal scheme → forest paths, exact and unique;
    - (6,2)-chordal scheme → Algorithm 2, exact minimum (Theorem 5);
    - otherwise, few terminals → exact Dreyfus–Wagner;
    - otherwise → nonredundant-cover elimination (heuristic upper
      bound, flagged as such).

    Independently, [min_relations] runs Algorithm 1 on α-acyclic
    schemes: minimum number of {e relations} (Theorem 4). *)

open Graphs

type connection = {
  objects : string list;  (** all tree nodes, query + auxiliary *)
  auxiliary : string list;  (** tree nodes not in the query *)
  relations_used : string list;
  attributes_used : string list;
  tree_edges : (string * string) list;
  optimal : bool;
      (** true when produced by an exactness-guaranteed solver *)
}

type error =
  | Unknown_object of string
  | Disconnected
  | Not_applicable of string
      (** the solver's precondition fails (e.g. a cyclic scheme for
          {!min_relations}) *)

val minimal_connection :
  Schema.t -> objects:string list -> (connection, error) result
(** A minimum connection of the objects, [optimal] when the rung that
    answered is exact. The empty object list answers [Ok] with the
    empty connection. [Error Disconnected] when the objects lie in
    different components. *)

val min_relations :
  Schema.t -> objects:string list -> (connection * int, error) result
(** Algorithm 1: pseudo-Steiner w.r.t. relations; the integer is the
    relation count. Answers through {!Engine.Session.query_relations}
    on {!Schema.compiled}; the empty object list answers the empty
    connection and 0. [Error (Not_applicable _)] when the objects'
    component of H¹ is not α-acyclic. *)

val weighted_connection :
  Schema.t -> objects:string list -> cost:(string -> int) ->
  (connection * int, error) result
(** Minimal {e total-cost} connection, where [cost] prices each object
    by its disclosure burden (exact node-weighted Steiner:
    {!Steiner.Dreyfus_wagner.solve_csr} with [~weight] on the schema's
    CSR; [cost] is called once per object). The integer is the achieved
    total cost. [Error (Not_applicable _)] when a cost is negative, when
    the costs sum above {!Steiner.Dreyfus_wagner.max_total_weight}, or
    beyond {!Steiner.Dreyfus_wagner.max_terminals} objects;
    [Error Disconnected] when the objects lie in different
    components. With every cost 1 the tree is the unweighted DP's. *)

val interpretations :
  ?k:int -> Schema.t -> objects:string list -> connection list
(** The minimal connection followed by up-to-[k - 1] alternative
    interpretations in nondecreasing size, enumerated exactly by
    {!Steiner.Kbest} and deduplicated by object set — the interactive
    disambiguation loop sketched in the paper's introduction. *)

val is_unambiguous :
  Schema.t -> objects:string list -> (bool, error) result
(** A query is {e unambiguous} (the notion of the authors' companion
    paper, reference [5]) when the minimum-size connection is unique as
    an object set: no other connection of the same size exists. Decided
    exactly with the ranked enumerator. *)

val terminals_of_objects :
  Schema.t -> string list -> (Iset.t, error) result

val connection_of_tree : Schema.t -> query:Iset.t -> Steiner.Tree.t -> optimal:bool -> connection

val pp_connection : Format.formatter -> connection -> unit
