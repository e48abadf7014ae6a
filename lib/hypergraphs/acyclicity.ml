open Graphs

type degree =
  | Berge_acyclic
  | Gamma_acyclic
  | Beta_acyclic
  | Alpha_acyclic
  | Cyclic

type report = {
  berge : bool;
  gamma : bool;
  beta : bool;
  alpha : bool;
  conformal : bool;
  chordal_2section : bool;
}

let alpha_acyclic = Mcs.alpha_acyclic

let chordal_2section_incidence t ~boundary =
  Chordal.is_chordal_csr (Hypergraph.two_section_csr t ~boundary)

let alpha_acyclic_by_definition h =
  let t, boundary = Hypergraph.incidence_csr h in
  chordal_2section_incidence t ~boundary
  && Conformal.incidence t ~boundary = None

(* One incidence CSR feeds every kernel; γ ⊆ β, so β-elimination runs
   only when γ-elimination fails. *)
let report h =
  let t, boundary = Hypergraph.incidence_csr h in
  let gamma = Gamma.acyclic_incidence t in
  {
    berge = Berge.acyclic h;
    gamma;
    beta = gamma || Beta.acyclic_incidence t ~boundary;
    alpha = Option.is_some (Mcs.incidence t ~boundary);
    conformal = Conformal.incidence t ~boundary = None;
    chordal_2section = chordal_2section_incidence t ~boundary;
  }

let degree h =
  let t, boundary = Hypergraph.incidence_csr h in
  if Berge.acyclic h then Berge_acyclic
  else if Gamma.acyclic_incidence t then Gamma_acyclic
  else if Beta.acyclic_incidence t ~boundary then Beta_acyclic
  else if Option.is_some (Mcs.incidence t ~boundary) then Alpha_acyclic
  else Cyclic

let degree_name = function
  | Berge_acyclic -> "Berge-acyclic"
  | Gamma_acyclic -> "gamma-acyclic"
  | Beta_acyclic -> "beta-acyclic"
  | Alpha_acyclic -> "alpha-acyclic"
  | Cyclic -> "cyclic"

type witness =
  | Berge_cycle of int list * int list
  | Gamma_3_cycle of int * int * int
  | Beta_cycle of int list
  | Chordless_cycle of int list
  | Gilmore_triple of int * int * int

let why_not h target =
  let beta_witness () =
    if Beta.acyclic h then None
    else
      match Beta.find_beta_cycle ~max_q:6 h with
      | Some (edges, _) -> Some (Beta_cycle edges)
      | None -> None
  in
  match target with
  | Cyclic -> None
  | Berge_acyclic -> (
    match Berge.find_berge_cycle h with
    | Some (es, ns) -> Some (Berge_cycle (es, ns))
    | None -> None)
  | Gamma_acyclic -> (
    if Gamma.acyclic h then None
    else
      match Gamma.special_3_cycle h with
      | Some (i, j, k) -> Some (Gamma_3_cycle (i, j, k))
      | None -> beta_witness ())
  | Beta_acyclic -> beta_witness ()
  | Alpha_acyclic -> (
    (* Definition 7: α fails exactly when the 2-section is not chordal
       or the hypergraph is not conformal. *)
    let t, boundary = Hypergraph.incidence_csr h in
    match Chordal.chordless_cycle_csr (Hypergraph.two_section_csr t ~boundary) with
    | Some cycle -> Some (Chordless_cycle cycle)
    | None ->
      Option.map
        (fun (i, j, k) -> Gilmore_triple (i, j, k))
        (Conformal.incidence t ~boundary))

let pp_witness ppf = function
  | Berge_cycle (es, ns) ->
    Format.fprintf ppf "Berge cycle through edges {%s} threaded by nodes {%s}"
      (String.concat ", " (List.map string_of_int es))
      (String.concat ", " (List.map string_of_int ns))
  | Gamma_3_cycle (i, j, k) ->
    Format.fprintf ppf "special 3-cycle on edges (%d, %d, %d)" i j k
  | Beta_cycle es ->
    Format.fprintf ppf "beta-cycle through edges {%s}"
      (String.concat ", " (List.map string_of_int es))
  | Chordless_cycle ns ->
    Format.fprintf ppf "chordless cycle in the 2-section through nodes {%s}"
      (String.concat ", " (List.map string_of_int ns))
  | Gilmore_triple (i, j, k) ->
    Format.fprintf ppf "edges (%d, %d, %d) violate Gilmore's criterion" i j k

let hierarchy_consistent r =
  (not r.berge || r.gamma) && (not r.gamma || r.beta) && (not r.beta || r.alpha)
