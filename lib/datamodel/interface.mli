(** The universal-relation interface end to end: a query is a set of
    attribute names; the system finds the minimal conceptual connection
    on the scheme, picks the corresponding relations, and evaluates the
    project-join over them (Yannakakis when acyclic) — no relation name
    ever appears in the query. This is the logical-independence scenario
    from the paper's introduction realised on actual data. *)

type answer = {
  connection : Query.connection;
  result : Relalg.Relation.t;
}

val answer :
  ?where:(string * string) list ->
  Relalg.Database.t ->
  query:string list ->
  (answer, Query.error) result
(** The query lists attribute (or relation) names; output columns are
    the attribute names among them. [where] adds equality selections
    [(attribute, value)]: the selected attributes join the connection
    (they must be reachable) and the selections are pushed down into
    the chosen relations before evaluation. *)

val relations_for :
  Relalg.Database.t ->
  Query.connection ->
  output:string list ->
  (string * Relalg.Relation.t) list
(** The relations a connection is evaluated over: those it uses, or —
    for a one-node tree with no relation — the first relation holding
    every [output] attribute ([[]] when none does). *)

val interpretations :
  ?k:int -> Relalg.Database.t -> query:string list -> answer list
(** One evaluated answer per candidate interpretation, minimal
    first. *)
