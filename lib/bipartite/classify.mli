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
    connected), merged by {!combine}; the empty graph has no component
    and is {!neutral}. [trace] (default disabled) records one
    ["classify"] span with the headline chordality verdicts as
    attributes and the per-component recognizer spans as children; no
    nested ["classify"] span is recorded. *)

val profile_connected : ?trace:Observe.Trace.t -> Bigraph.t -> profile
(** The per-component kernel. The graph must be connected and
    non-empty: a tree is recognised as m = n − 1. A cascade runs each
    recognizer only for a fact Theorem 1 and Corollary 2 leave open,
    each under its own child span:

    - a tree is in every class: {!neutral}, and no span;
    - else ["classify.chordal_62"]: γ-elimination
      ({!Hypergraphs.Gamma.acyclic_incidence}) on the graph's CSR,
      which is H¹'s incidence graph. If it succeeds the graph is also
      (6,1)-chordal, every side field is true (Corollary 2) and both
      degrees are γ;
    - else ["classify.chordal_61"]: β-elimination
      ({!Hypergraphs.Beta.acyclic_incidence}) on the same CSR. If it
      succeeds every side field is true and both degrees are β;
    - else, per side K of [h1] (V₂ witnesses, on G's CSR) and [h2]
      (V₁, on the flipped CSR): ["classify.hK.alpha"], the linear
      {!Hypergraphs.Mcs.incidence} kernel. α settles chordal and
      conformal too (Theorem 1 (v)). Off α ["classify.hK.chordal"]
      cuts the side's 2-section from the same CSR
      ({!Hypergraphs.Hypergraph.two_section_csr}) and decides it with
      the linear MCS kernel ({!Graphs.Chordal.is_chordal_csr}): a
      chordal side is not conformal, else ["classify.hK.conformal"]
      runs Gilmore's criterion on the same CSR
      ({!Hypergraphs.Conformal.incidence}). Each degree is α or
      cyclic.

    γ-elimination is near-linear in the component's size.
    β-elimination re-tests a node only when a node that blocked its
    last test is deleted. A side's 2-section costs the sum of its
    hyperedges' squared sizes, and Gilmore's criterion a sum over the
    triangles of its hyperedges' intersection graph. No check builds a
    hypergraph or a bitset.
    So a component records 0, 1, 2, or 4 to 8 child spans under its
    one ["classify"] span, which carries the headline verdicts. *)

val neutral : profile
(** The profile of the empty graph — identity of {!combine}: every
    check true, both degrees Berge-acyclic. *)

val combine : profile array -> profile
(** Conjunction of per-component profiles: booleans combine by [&&],
    degrees by worst level. Because every recognizer the profile runs
    is component-local, [combine] over the profiles of the induced
    connected components equals the whole-graph profile — the
    decomposition {!profile} is built on, and that lets
    {!Engine.Compiled} classify a component only when a query first
    lands in it, and {!Engine.Compiled.apply_delta} keep the profiles
    of the components a schema delta leaves untouched. *)

val recommend : profile -> recommendation

val recommendation_name : recommendation -> string

val theorem1_consistent : profile -> bool
(** Internal consistency demanded by Theorem 1 and Corollary 2:
    [chordal_61] implies both-side chordality+conformity,
    [alpha_h1 = v2_chordal && v2_conformal], etc. {!profile_connected}
    derives these facts, so its output passes by construction: this is
    a test of independently computed profiles, such as the test
    suite's whole-graph reference. *)

val pp_profile : Format.formatter -> profile -> unit
