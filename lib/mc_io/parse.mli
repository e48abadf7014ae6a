(** Text formats for the CLI and the examples.

    Bipartite graph files:
    {v
    # comment
    bipartite
    left  A B C
    right r1 r2
    edge  A r1
    edge  B r1
    v}

    Schema files:
    {v
    schema
    relation works    emp dept
    relation located  dept floor
    v}

    Hypergraph files:
    {v
    hypergraph
    nodes a b c d
    edge  e1  a b
    edge  e2  b c d
    v}

    Delta files (applied against a bipartite graph file's schema):
    {v
    deltas
    +edge A r1
    -edge B r1
    +relation r9 A C
    -relation r2
    v}

    One scanner reads every format: spaces and tabs separate tokens, a
    [#] comments out the rest of its line, lines with no token are
    skipped, and a line may end in ["\n"] or ["\r\n"]. Node/relation
    names may be any strings free of those separators; [left] and
    [right] lines may repeat and accumulate. *)

open Graphs
open Hypergraphs

type named_bigraph = {
  graph : Bipartite.Bigraph.t;
  left_names : string array;
  right_names : string array;
}

type error = Runtime.Errors.t
(** Parse failures are always [Runtime.Errors.Parse_error {line; col; msg}]
    with 1-based line and column; [col = 0] (or [line = 0]) means the
    position is unknown (e.g. a whole-file property like a duplicate
    name). Sharing the runtime taxonomy lets callers thread parse
    errors straight to the CLI error boundary. *)

val max_input_bytes : int
(** Hard cap on total input size for every [*_of_string] parser
    (8 MiB). Larger inputs are rejected up front with a typed
    [Parse_error] instead of being tokenized into memory — these
    parsers sit on attacker-reachable boundaries (CLI files, server
    request bodies). *)

val max_line_bytes : int
(** Hard cap on a single line (64 KiB, not counting its line break);
    the typed rejection names the first offending line, and wins over
    any parse error, wherever in the text that error is. *)

val bigraph_of_string : string -> (named_bigraph, error) result
(** Linear in the input, in one pass of the scanner: each token is an
    offset into the text, each name is copied out once, every edge
    endpoint is resolved by hashing its bytes in place against the
    same kind of table as {!name_index}, and the graph is built in one
    pass into CSR form ({!Bipartite.Bigraph.of_edge_iter}). Duplicate
    edges collapse. An unknown name reports the position of its first
    use in file order; an [edge] line without exactly two names reports
    ['edge' line needs two names, found k] at its first extra name, or
    at the keyword when names are missing. It is
    [Result.map fst (indexed_bigraph_of_string text)]. *)

val schema_of_string : string -> (Datamodel.Schema.t, error) result

val hypergraph_of_string :
  string -> (Hypergraph.t * string array * string array, error) result
(** Returns the hypergraph plus node names and edge names. *)

val database_of_string :
  ?semantics:Relalg.Relation.semantics ->
  string ->
  (Relalg.Database.t, error) result
(** Populated database files:
    {v
    database
    relation works  emp dept
    row works  alice toys
    row works  bob   books
    v}
    Under the default [Set] semantics duplicate [row] lines collapse;
    pass [~semantics:Bag] to preserve multiplicities. *)

val query_of_string :
  string -> (string list * (string * string) list, error) result
(** The interface's tiny query language:
    [connect emp, manager where dept = toys and floor = 1] returns the
    object names and the equality selections. *)

val name_set : named_bigraph -> string list -> (Iset.t, string) result
(** Resolve a list of names to underlying indices; [Error name] on the
    first unknown one. A linear scan of both name arrays per name, with
    nothing built — for a caller that holds no index and resolves one
    terminal set. A caller resolving many sets against one schema
    builds a {!name_index} once and calls {!resolve}; a caller that
    loaded the schema from text already has one
    ({!indexed_bigraph_of_string}). *)

type name_index
(** An immutable name table per side of a {!named_bigraph}: open
    addressing keyed by an FNV-1a hash of the name's bytes (the hash
    {!bigraph_of_string} computes on tokens in place), 4-byte slots in
    one flat
    buffer at load <= 1/2, every hit confirmed by [String.equal]
    against the side's array. A repeated name resolves to its first
    occurrence, as {!name_set}'s scan finds it. Built in
    O(|left| + |right|); never mutated afterwards, so a published
    index can be read by any number of threads. *)

val index : named_bigraph -> name_index

val reindex : name_index -> named_bigraph -> name_index
(** [reindex ix nb] is [index nb], keeping each side of [ix] whose
    name array is physically [nb]'s. A schema evolved by
    {!deltas_of_string} shares its left array with its parent (and
    both arrays after edge-only deltas), so a delta rebuilds at most
    the right side's table. A side whose array is the indexed one with
    one name appended (a [+relation]) copies the table and inserts
    that name, hashing nothing else; it is rehashed whole only when a
    name was removed or the load would pass 1/2. *)

val resolve : name_index -> string list -> (Iset.t, string) result
(** {!name_set} against the index: the same result and the same
    first-unknown [Error], in O(|names|) expected time. A name present
    on both sides resolves to the left one. *)

val indexed_bigraph_of_string :
  string -> (named_bigraph * name_index, error) result
(** {!bigraph_of_string}, returning with the graph the name tables it
    built to check for duplicates and resolve edges: the index is
    [index] of the graph, without a second pass over the names. The
    one loader behind both entry points, so errors and their positions
    are the same. *)

val deltas_of_string :
  ?names:name_index ->
  named_bigraph ->
  string ->
  (Bipartite.Delta.op list * named_bigraph, error) result
(** Parse a delta file against the given schema, resolving each line's
    names in the schema {e as evolved by the preceding lines} — a
    [+relation] three lines up is a legal [+edge] endpoint here.
    Names resolve through a {!name_index} ({!resolve}'s table), which
    is {!reindex}ed after each op on its next use; [names], an index
    of the given schema, saves building the first one. The
    returned index ops are exactly what [Delta.apply_all] (and the
    engine's [Compiled.apply_deltas]) expect, and the returned
    [named_bigraph] is the fully evolved schema with its name tables
    ([+relation] appends a right name, [-relation] removes one;
    duplicate names are rejected). Typed [Parse_error] with line/col
    on unknown directives, unknown names, or an op the engine would
    reject (out-of-range index). *)

val delta_steps_of_string :
  ?names:name_index ->
  named_bigraph ->
  string ->
  ((Bipartite.Delta.op * Bipartite.Bigraph.t) list * named_bigraph * name_index,
   error)
  result
(** {!deltas_of_string}, keeping with each op the graph that applying
    it produced (the parser applies every op once, to validate it), and
    returning the evolved schema's {!name_index} ({!reindex}ed op by
    op, each [+relation] inserting its one name). The last step's graph
    is physically the evolved schema's, so
    [Engine.Compiled.patch_all] over the steps yields a plan whose
    graph is that schema's, with no op applied twice. *)

val bigraph_to_string : named_bigraph -> string
(** The inverse of {!bigraph_of_string}. A side's names go on as few
    [left]/[right] lines as {!max_line_bytes} allows, so a side that fits
    prints as one line and a 10^5-node schema still reads back. An empty
    side prints no line. *)

val schema_to_string : Datamodel.Schema.t -> string

val hypergraph_to_string :
  Hypergraph.t -> node_names:string array -> edge_names:string array -> string

val database_to_string : Relalg.Database.t -> string

val pp_error : Format.formatter -> error -> unit
