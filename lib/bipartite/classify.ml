open Hypergraphs

type profile = {
  chordal_41 : bool;
  chordal_62 : bool;
  chordal_61 : bool;
  v2_chordal : bool;
  v2_conformal : bool;
  v1_chordal : bool;
  v1_conformal : bool;
  alpha_h1 : bool;
  alpha_h2 : bool;
  degree_h1 : Acyclicity.degree;
  degree_h2 : Acyclicity.degree;
}

type recommendation =
  | Steiner_polynomial
  | Pseudo_steiner_v2
  | Pseudo_steiner_v1
  | Pseudo_steiner_both
  | Exact_search_only

let neutral =
  {
    chordal_41 = true;
    chordal_62 = true;
    chordal_61 = true;
    v2_chordal = true;
    v2_conformal = true;
    v1_chordal = true;
    v1_conformal = true;
    alpha_h1 = true;
    alpha_h2 = true;
    degree_h1 = Acyclicity.Berge_acyclic;
    degree_h2 = Acyclicity.Berge_acyclic;
  }

(* Side [hK] off (6,1), read as H¹ of [g] (H² of G is H¹ of its
   flip), as (chordal, conformal, α), each check under a span
   ["classify.hK.check"]. α is chordal ∧ conformal (Theorem 1 (v)), so
   the α kernel runs first; off α a chordal 2-section means not
   conformal, and only a non-chordal side runs Gilmore's criterion.
   All three read [g]'s CSR; no hypergraph is built. *)
let side trace hk g =
  let span check f =
    Observe.Trace.span trace ("classify." ^ hk ^ "." ^ check) f
  in
  if span "alpha" (fun () -> Side_properties.alpha_side g Bigraph.V2) then
    (true, true, true)
  else if span "chordal" (fun () -> Side_properties.chordal g Bigraph.V2) then
    (true, false, false)
  else
    ( false,
      span "conformal" (fun () -> Side_properties.conformal g Bigraph.V2),
      false )

(* The cascade documented in classify.mli. G's CSR is the incidence
   graph of H¹, and of H² read from the other side, so γ and
   β-elimination on it decide (6,2) and (6,1)-chordality of G, which
   are γ and β-acyclicity of both H¹ and H² (Theorem 1). Corollary 2
   puts every side field of a (6,1)-chordal graph at true. *)
let checks trace g =
  if Bigraph.m g = Bigraph.n g - 1 then neutral
  else
    let span name f = Observe.Trace.span trace name f in
    let csr = Bigraph.csr g in
    let chordal_61_profile chordal_62 =
      let d = if chordal_62 then Acyclicity.Gamma_acyclic else Beta_acyclic in
      {
        neutral with
        chordal_41 = false;
        chordal_62;
        degree_h1 = d;
        degree_h2 = d;
      }
    in
    if span "classify.chordal_62" (fun () -> Gamma.acyclic_incidence csr) then
      chordal_61_profile true
    else if
      span "classify.chordal_61" (fun () ->
          Beta.acyclic_incidence csr ~boundary:(Bigraph.nl g))
    then chordal_61_profile false
    else
      let v2_chordal, v2_conformal, alpha_h1 = side trace "h1" g in
      let v1_chordal, v1_conformal, alpha_h2 = side trace "h2" (Bigraph.flip g) in
      let degree a = if a then Acyclicity.Alpha_acyclic else Cyclic in
      {
        chordal_41 = false;
        chordal_62 = false;
        chordal_61 = false;
        v2_chordal;
        v2_conformal;
        v1_chordal;
        v1_conformal;
        alpha_h1;
        alpha_h2;
        degree_h1 = degree alpha_h1;
        degree_h2 = degree alpha_h2;
      }

(* Every recognizer in the profile is component-local: cycles, cliques,
   hyperedges and α searches never cross a connected component, and
   the witness hypergraphs drop the empty hyperedges an isolated
   relation would contribute on either side of the decomposition. So
   the whole-graph profile is the conjunction of the per-component
   profiles, with acyclicity degrees combining by worst level. [profile]
   below is defined that way, and the delta engine leans on it too:
   after an edit only the touched components are re-profiled and the
   global verdict is re-derived here. test/test_bipartite.ml pins
   [profile] against the whole-graph thirteen-check reference in
   test/reference_classify.ml. *)
let severity = function
  | Acyclicity.Berge_acyclic -> 0
  | Acyclicity.Gamma_acyclic -> 1
  | Acyclicity.Beta_acyclic -> 2
  | Acyclicity.Alpha_acyclic -> 3
  | Acyclicity.Cyclic -> 4

let worst_degree a b = if severity a >= severity b then a else b

let combine profiles =
  Array.fold_left
    (fun acc p ->
      {
        chordal_41 = acc.chordal_41 && p.chordal_41;
        chordal_62 = acc.chordal_62 && p.chordal_62;
        chordal_61 = acc.chordal_61 && p.chordal_61;
        v2_chordal = acc.v2_chordal && p.v2_chordal;
        v2_conformal = acc.v2_conformal && p.v2_conformal;
        v1_chordal = acc.v1_chordal && p.v1_chordal;
        v1_conformal = acc.v1_conformal && p.v1_conformal;
        alpha_h1 = acc.alpha_h1 && p.alpha_h1;
        alpha_h2 = acc.alpha_h2 && p.alpha_h2;
        degree_h1 = worst_degree acc.degree_h1 p.degree_h1;
        degree_h2 = worst_degree acc.degree_h2 p.degree_h2;
      })
    neutral profiles

(* One ["classify"] span per call, carrying the sizes and the headline
   chordality verdicts. *)
let classify_span trace g f =
  Observe.Trace.span trace "classify"
    ~attrs:
      [
        ("nl", Observe.Trace.Int (Bigraph.nl g));
        ("nr", Observe.Trace.Int (Bigraph.nr g));
      ]
    (fun () ->
      let p = f () in
      Observe.Trace.add_attr trace "chordal_41" (Observe.Trace.Bool p.chordal_41);
      Observe.Trace.add_attr trace "chordal_62" (Observe.Trace.Bool p.chordal_62);
      Observe.Trace.add_attr trace "chordal_61" (Observe.Trace.Bool p.chordal_61);
      p)

let profile_connected ?(trace = Observe.Trace.disabled) g =
  classify_span trace g (fun () -> checks trace g)

(* A connected graph is its own only component and is checked in
   place; otherwise each component is checked on its induced slice.
   The per-component checks record their spans under this call's one
   ["classify"] span, so span totals never count a component twice. *)
let profile ?(trace = Observe.Trace.disabled) g =
  classify_span trace g (fun () ->
      let cs = Graphs.Csr.components (Bigraph.csr g) in
      let local = Array.make (Bigraph.n g) 0 in
      combine
        (Array.init (Graphs.Csr.n_components cs) (fun c ->
             checks trace (Bigraph.slice g cs ~local c))))

let recommend p =
  if p.chordal_62 then Steiner_polynomial
  else
    match (p.alpha_h1, p.alpha_h2) with
    | true, true -> Pseudo_steiner_both
    | true, false -> Pseudo_steiner_v2
    | false, true -> Pseudo_steiner_v1
    | false, false -> Exact_search_only

let recommendation_name = function
  | Steiner_polynomial -> "Steiner solvable in P (Algorithm 2, Theorem 5)"
  | Pseudo_steiner_v2 -> "pseudo-Steiner w.r.t. V2 in P (Algorithm 1, Theorem 4)"
  | Pseudo_steiner_v1 -> "pseudo-Steiner w.r.t. V1 in P (Algorithm 1, flipped)"
  | Pseudo_steiner_both -> "pseudo-Steiner w.r.t. either side in P (Algorithm 1)"
  | Exact_search_only -> "no chordality structure: exact search / approximation"

let theorem1_consistent p =
  (* Theorem 1 (v)/(vi). *)
  p.alpha_h1 = (p.v2_chordal && p.v2_conformal)
  && p.alpha_h2 = (p.v1_chordal && p.v1_conformal)
  (* Hierarchy along (4,1) ⊆ (6,2) ⊆ (6,1). *)
  && ((not p.chordal_41) || p.chordal_62)
  && ((not p.chordal_62) || p.chordal_61)
  (* Corollary 2: (6,1)-chordal implies chordal+conformal on both sides. *)
  && ((not p.chordal_61) || (p.alpha_h1 && p.alpha_h2))

let pp_profile ppf p =
  let b = function true -> "yes" | false -> "no" in
  Format.fprintf ppf
    "@[<v>(4,1)-chordal (forest):      %s@,\
     (6,2)-chordal (gamma):       %s@,\
     (6,1)-chordal (beta):        %s@,\
     V2-chordal / V2-conformal:   %s / %s@,\
     V1-chordal / V1-conformal:   %s / %s@,\
     H1 degree: %s@,\
     H2 degree: %s@]"
    (b p.chordal_41) (b p.chordal_62) (b p.chordal_61) (b p.v2_chordal)
    (b p.v2_conformal) (b p.v1_chordal) (b p.v1_conformal)
    (Acyclicity.degree_name p.degree_h1)
    (Acyclicity.degree_name p.degree_h2)
