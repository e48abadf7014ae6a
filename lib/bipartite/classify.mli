(** One-stop classification of a bipartite graph against every class the
    paper studies, plus the solver recommendation that Section 3
    justifies. *)

open Hypergraphs

type profile = {
  chordal_41 : bool;  (** (4,1)-chordal, i.e. a forest *)
  chordal_62 : bool;  (** (6,2)-chordal, i.e. H¹ γ-acyclic *)
  chordal_61 : bool;  (** (6,1)-chordal, i.e. H¹ β-acyclic *)
  v2_chordal : bool;
  v2_conformal : bool;
  v1_chordal : bool;
  v1_conformal : bool;
  alpha_h1 : bool;  (** = v2_chordal && v2_conformal (Theorem 1 (v)) *)
  alpha_h2 : bool;
  degree_h1 : Acyclicity.degree;
  degree_h2 : Acyclicity.degree;
}

(** What Section 3 licenses on this graph. *)
type recommendation =
  | Steiner_polynomial
      (** (6,2)-chordal: Algorithm 2 solves full Steiner exactly
          (Theorem 5). *)
  | Pseudo_steiner_v2
      (** α-acyclic H¹ only: Algorithm 1 minimises V₂ nodes (Theorem 4);
          full Steiner is NP-hard here (Theorem 2). *)
  | Pseudo_steiner_v1
      (** α-acyclic H² only: Algorithm 1 on the flipped graph. *)
  | Pseudo_steiner_both
      (** both sides α-acyclic but not (6,2)-chordal. *)
  | Exact_search_only
      (** no structure: fall back to exponential exact search or the
          MST approximation. *)

val profile : ?trace:Observe.Trace.t -> Bigraph.t -> profile
(** Classify a graph of any shape: {!profile_connected} on each
    connected component (the graph itself, uncopied, when it is
    connected), merged by {!combine}. [trace] (default disabled)
    records one ["classify"] span with the headline chordality
    verdicts as attributes and the per-component recognizer spans as
    children; no nested ["classify"] span is recorded. *)

val profile_connected : ?trace:Observe.Trace.t -> Bigraph.t -> profile
(** The per-component kernel: nine independent checks on a connected
    graph, sharing one build of the witness hypergraphs H¹/H² and their
    two-sections. The Berge, γ and β levels of both degrees are derived
    from [chordal_41], [chordal_62] and [chordal_61] (Theorem 1 and
    Corollary 1), so only α is checked per side. [trace] records a
    ["classify"] span with one child span per check (nine) and the
    headline verdicts as attributes. *)

val neutral : profile
(** The profile of the empty graph — identity of {!combine}: every
    check true, both degrees Berge-acyclic. *)

val combine : profile array -> profile
(** Conjunction of per-component profiles: booleans combine by [&&],
    degrees by worst level. Because every recognizer the profile runs
    is component-local, [combine] over the profiles of the induced
    connected components equals the whole-graph profile — the
    decomposition {!profile} is built on, and that
    {!Engine.Compiled.apply_delta} exploits to re-profile only the
    components a schema delta touches. *)

val recommend : profile -> recommendation

val recommendation_name : recommendation -> string

val theorem1_consistent : profile -> bool
(** Internal consistency demanded by Theorem 1 and Corollary 2:
    [chordal_61 = beta(H¹)] implies both-side chordality+conformity,
    [alpha_h1 = v2_chordal && v2_conformal], etc. The test suite and the
    benchmark harness evaluate this on every generated graph. *)

val pp_profile : Format.formatter -> profile -> unit
