(** A conceptual schema compiled once, queried many times.

    The paper's serving setting (Section 3) fixes the bipartite scheme
    and streams terminal-set queries over it. What every query reads
    and only the scheme decides — the flat CSR adjacency and the
    connected components — is computed here exactly once; {!Session}
    then answers each query on the terminals' component of the cached
    plan. A minimal connection never leaves that component, and every
    class that licenses one of the paper's rungs is a conjunction over
    components ({!Bipartite.Classify.combine}), so each component's
    chordality/acyclicity {!Bipartite.Classify.profile} is memoised in
    the plan and filled by the first query that lands in it
    ({!classify}): a schema of many components pays only for the ones
    its queries touch. Algorithm 1's Lemma 1 ordering W also depends
    only on a component, but the plan does not keep it: no caller asks
    Algorithm 1 more than one terminal set per plan, so
    {!Session.query_relations} derives W on the terminals' slice
    ({!Steiner.Algorithm1.solve_slice}). *)

open Graphs
open Bipartite

type component = {
  nodes : Iset.t;
  cprofile : Classify.profile option Atomic.t;
      (** the memoised classification of the induced sub-bigraph:
          [None] until {!classify} (or {!profile}) first fills it, then
          [Some] for good. A delta keeps the cell of every component it
          leaves untouched (the old and new plan share it), so only
          rebuilt components start unclassified again. *)
}
(** A component is its node set and its profile memo; a query cuts
    the component's slice out of [graph] itself
    ([Bigraph.induced graph nodes]). *)

type t = {
  graph : Bigraph.t;
      (** the schema; queries slice their component out of its CSR
          ({!Bipartite.Bigraph.csr}) *)
  comp_id : int array;  (** component index per node *)
  components : component array;
}
(** The record is exposed read-only by convention: sessions and
    downstream layers read it, nobody mutates it; the profile memos
    are written only through {!classify}. *)

val compile :
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  Bigraph.t ->
  t
(** One-time schema compilation: the component layout
    ({!Graphs.Csr.components}) and each component's node set, every
    profile memo empty. Nothing is classified and no solver runs at
    compile time: no ["classify"] and no ["algorithm1.*"] span is
    recorded. [trace] records a ["compile"] span with a
    ["compile.components"] child and a [components] count attribute;
    [metrics] bumps the [engine.compiles] counter. Compilation performs
    no budgeted work — budgets meter queries only. *)

val graph : t -> Bigraph.t

val ugraph : t -> Ugraph.t
(** [Bigraph.ugraph] of the schema: the whole-graph set view, derived
    in O(n + m) on every call. No engine path calls it. *)

val classify :
  ?trace:Observe.Trace.t -> component -> Bigraph.t -> Classify.profile
(** [classify c slice] is [c]'s profile. [slice] must be [c]'s induced
    sub-bigraph (the graph itself when the schema is connected). Only
    the first call classifies it, by
    {!Bipartite.Classify.profile_connected} under one ["classify"]
    span in [trace]; later calls read the memo and record nothing.
    Safe under concurrent callers: threads that race on an empty memo
    each classify and store the same immutable profile. *)

val profile : t -> Classify.profile
(** The whole schema's profile: {!Bipartite.Classify.combine} over
    every component's {!classify}, filling the memos still empty
    (each from its own {!Bipartite.Bigraph.induced} slice, untraced).
    It equals [Classify.profile (graph t)]. The query path never calls
    it: {!Session.query} reads only its terminals' component. *)

val n_components : t -> int

(** {2 Incremental evolution}

    A schema delta dirties the components whose vertex sets it
    touches and nothing else: an edge insertion merges (at most) the
    two endpoint components into one fresh component, an
    edge deletion relabels the one component it hits (which may split
    into several), an appended relation merges the components of its
    attributes with the new node, and removing the {e last} relation
    drops its node from its component. Every untouched component —
    node set and profile memo — is reused verbatim; a rebuilt one
    starts unclassified, and no delta classifies anything. Removing an
    {e interior} relation shifts every higher underlying index, which
    invalidates the cached per-component structure wholesale; that case
    falls back to a full {!compile} (reported via [fallback]).

    The patched plan is canonically identical to compiling the mutated
    schema from scratch — same per-component node sets and (once
    classified) profiles, same component numbering (ascending minimum
    element, matching [Traverse.component_ids]), and therefore the same
    answer to every query. test/test_evolve.ml pins this differentially over
    random delta sequences. *)

type delta_stats = {
  op : Delta.op;
  noop : bool;
      (** the delta left the graph physically unchanged; no component
          was dirtied *)
  fallback : bool;  (** interior relation removal: full recompile *)
  recompiled : int list;
      (** component indices (in the {e new} plan) that were rebuilt *)
  reused : int;  (** components of the old plan reused verbatim *)
}

val patch :
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  t ->
  Delta.op ->
  Bigraph.t ->
  t * delta_stats
(** [patch t op g'] is the plan half of a delta: [g'] must be
    [Delta.apply (graph t) op]'s result, which a caller that already
    applied the op (the delta-file parser does, to validate each line)
    passes on instead of applying it again. [g'] becomes the new
    plan's {!graph} as it is; [g' == graph t] is the no-op and returns
    [t]. The kept components are merged with the rebuilt ones in
    component order and [comp_id] is relabelled in one flat pass; an
    interior relation removal compiles [g'] afresh. Records an
    ["apply_delta"] span (op, recompiled, reused, fallback attrs) and
    bumps [engine.delta.applied] / [engine.delta.noops] /
    [engine.delta.fallbacks] / [engine.delta.recompiled_components]. *)

val patch_all :
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  t ->
  (Delta.op * Bigraph.t) list ->
  t * delta_stats list
(** Left fold of {!patch} over each op paired with the graph it
    produced, as [Mc_io.Parse.delta_steps_of_string] returns them:
    the resulting plan's graph is the last step's, physically. *)

val apply_delta :
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  t ->
  Delta.op ->
  (t * delta_stats, string) result
(** Apply one schema delta to the plan: [Delta.apply] on its graph,
    then {!patch}. [Error] only on index validation failure (the plan
    is unchanged). *)

val apply_deltas :
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  t ->
  Delta.op list ->
  (t * delta_stats list, string) result
(** Left fold of {!apply_delta}; the error names the 1-based position
    of the failing delta. *)

val schema_hash : Bigraph.t -> string
(** Hex digest of the schema's left count and canonical CSR arrays
    ({!Graphs.Csr.digest}): equal graphs hash equally regardless of
    construction order. [minconn compile] prints it as [schema=]. *)
