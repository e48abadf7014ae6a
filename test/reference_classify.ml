(* Test oracles. [reference_profile] is the whole-graph classifier:
   thirteen recognizers run on the graph in one pass, each deciding its
   field independently. [Classify.profile] runs, per component, only
   the checks Theorem 1 and Corollary 2 leave open and derives the
   rest; it must reproduce the reference field for field. The
   reference decides β and γ with the set-view oracles below, side
   chordality with the LexBFS pipeline of [Reference_sets] on the
   [Ugraph] 2-section, and conformality with the Iset triple loop
   below, not with the kernels [Classify] runs. *)

open Hypergraphs
open Bipartite

(* Nest-point elimination on the set view: rebuild the hypergraph
   after every deletion, always taking the smallest nest point. *)
let rec beta_acyclic_sets h =
  let covered = Hypergraph.covered_nodes h in
  Graphs.Iset.is_empty covered
  ||
  match
    List.find_opt (Beta.is_nest_point h) (Graphs.Iset.elements covered)
  with
  | None -> false
  | Some v -> beta_acyclic_sets (Hypergraph.remove_node h v)

(* A γ-cycle is a β-cycle or a special 3-cycle (Definition 6). *)
let gamma_acyclic_sets h =
  beta_acyclic_sets h && Gamma.special_3_cycle h = None

let degree ~berge ~gamma ~beta ~alpha =
  if berge then Acyclicity.Berge_acyclic
  else if gamma then Acyclicity.Gamma_acyclic
  else if beta then Acyclicity.Beta_acyclic
  else if alpha then Acyclicity.Alpha_acyclic
  else Acyclicity.Cyclic

(* Gilmore's criterion on Iset, the reference for the incidence
   kernel [Conformal.incidence]: the lexicographically first triple of
   edges whose pairwise intersections lie in no single edge. *)
let gilmore_violation_sets h =
  let q = Hypergraph.n_edges h in
  let e = Hypergraph.edge h in
  let contained_in_some s =
    let rec go i = i < q && (Graphs.Iset.subset s (e i) || go (i + 1)) in
    go 0
  in
  let result = ref None in
  for i = 0 to q - 1 do
    for j = i + 1 to q - 1 do
      for k = j + 1 to q - 1 do
        if !result = None then begin
          let s =
            Graphs.Iset.union
              (Graphs.Iset.inter (e i) (e j))
              (Graphs.Iset.union
                 (Graphs.Iset.inter (e j) (e k))
                 (Graphs.Iset.inter (e i) (e k)))
          in
          if not (contained_in_some s) then result := Some (i, j, k)
        end
      done
    done
  done;
  !result

let reference_profile g =
  let h1 = fst (Correspond.h1 g) and h2 = fst (Correspond.h2 g) in
  let conformal h = gilmore_violation_sets h = None in
  let chordal_62 = gamma_acyclic_sets h1 in
  let chordal_61 = beta_acyclic_sets h1 in
  let alpha_h1 = Gyo.alpha_acyclic h1 in
  let alpha_h2 = Gyo.alpha_acyclic h2 in
  {
    Classify.chordal_41 = Mn_chordality.is_41_chordal g;
    chordal_62;
    chordal_61;
    v2_chordal = Reference_sets.is_chordal_sets (Hypergraph.two_section h1);
    v2_conformal = conformal h1;
    v1_chordal = Reference_sets.is_chordal_sets (Hypergraph.two_section h2);
    v1_conformal = conformal h2;
    alpha_h1;
    alpha_h2;
    degree_h1 =
      degree ~berge:(Berge.acyclic h1) ~gamma:chordal_62 ~beta:chordal_61
        ~alpha:alpha_h1;
    degree_h2 =
      degree ~berge:(Berge.acyclic h2) ~gamma:(gamma_acyclic_sets h2)
        ~beta:(beta_acyclic_sets h2) ~alpha:alpha_h2;
  }
