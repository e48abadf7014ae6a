(* The whole-graph classifier, kept as a test oracle: thirteen
   recognizers run on the graph in one pass. Besides the nine checks
   [Classify.profile] runs per component, it decides Berge-acyclicity
   of H¹ and H² and γ/β-acyclicity of H² directly, where the library
   derives them from (4,1)/(6,2)/(6,1)-chordality by Theorem 1 and
   Corollary 1. [Classify.profile] must reproduce it field for
   field. *)

open Hypergraphs
open Bipartite

let degree ~berge ~gamma ~beta ~alpha =
  if berge then Acyclicity.Berge_acyclic
  else if gamma then Acyclicity.Gamma_acyclic
  else if beta then Acyclicity.Beta_acyclic
  else if alpha then Acyclicity.Alpha_acyclic
  else Acyclicity.Cyclic

let reference_profile g =
  let h1 = Side_properties.hypergraph_of_witness_side g Bigraph.V2 in
  let h2 = Side_properties.hypergraph_of_witness_side g Bigraph.V1 in
  let chordal_62 = Gamma.acyclic h1 in
  let chordal_61 = Beta.acyclic h1 in
  let alpha_h1 = Gyo.alpha_acyclic h1 in
  let alpha_h2 = Gyo.alpha_acyclic h2 in
  {
    Classify.chordal_41 = Mn_chordality.is_41_chordal g;
    chordal_62;
    chordal_61;
    v2_chordal = Graphs.Chordal.is_chordal (Hypergraph.two_section h1);
    v2_conformal = Conformal.is_conformal h1;
    v1_chordal = Graphs.Chordal.is_chordal (Hypergraph.two_section h2);
    v1_conformal = Conformal.is_conformal h2;
    alpha_h1;
    alpha_h2;
    degree_h1 =
      degree ~berge:(Berge.acyclic h1) ~gamma:chordal_62 ~beta:chordal_61
        ~alpha:alpha_h1;
    degree_h2 =
      degree ~berge:(Berge.acyclic h2) ~gamma:(Gamma.acyclic h2)
        ~beta:(Beta.acyclic h2) ~alpha:alpha_h2;
  }
