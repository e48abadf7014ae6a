(** Umbrella: the four acyclicity degrees of relational database theory
    (Fagin 1983), specialised as in the paper's Definitions 6–7.

    The degrees form a proper hierarchy on acyclic hypergraphs:
    Berge-acyclic ⊂ γ-acyclic ⊂ β-acyclic ⊂ α-acyclic. *)

type degree =
  | Berge_acyclic
  | Gamma_acyclic  (** γ- but not Berge-acyclic *)
  | Beta_acyclic  (** β- but not γ-acyclic *)
  | Alpha_acyclic  (** α- but not β-acyclic *)
  | Cyclic  (** not even α-acyclic *)

type report = {
  berge : bool;
  gamma : bool;
  beta : bool;
  alpha : bool;
  conformal : bool;
  chordal_2section : bool;
}

val alpha_acyclic : Hypergraph.t -> bool
(** Via the linear maximum cardinality search kernel ({!Mcs}).
    Equivalent formulation (Definition 7): the 2-section is chordal and
    the hypergraph is conformal. *)

val alpha_acyclic_by_definition : Hypergraph.t -> bool
(** Literally Definition 7: [G(H)] chordal and [H] conformal. Used to
    cross-check the search-based test. *)

val report : Hypergraph.t -> report
(** Every field, each kernel reading one incidence CSR. *)

val degree : Hypergraph.t -> degree
(** Most restrictive satisfied degree, on one incidence CSR. *)

val degree_name : degree -> string

(** Why a hypergraph misses a degree: a concrete cycle witness. *)
type witness =
  | Berge_cycle of int list * int list
      (** edge indices and thread nodes of a Berge cycle *)
  | Gamma_3_cycle of int * int * int
      (** ordered edge triple of Definition 6's special 3-cycle *)
  | Beta_cycle of int list  (** edge indices of a β-cycle *)
  | Chordless_cycle of int list
      (** nodes of a chordless cycle of length at least 4 in the
          2-section, consecutive nodes adjacent (α fails: the 2-section
          is not chordal) *)
  | Gilmore_triple of int * int * int
      (** edge triple whose pairwise intersections lie in no single
          edge (α fails: chordal 2-section, not conformal) *)

val why_not : Hypergraph.t -> degree -> witness option
(** A witness that the hypergraph does {e not} reach the given degree;
    [None] when it does (or when the exponential β search is cut off).
    [Cyclic] as a target never has a witness. For [Alpha_acyclic]
    (Definition 7): a chordless cycle of the 2-section
    ({!Graphs.Chordal.chordless_cycle_csr}), else Gilmore's first
    violating triple ({!Conformal.incidence}), both on one incidence
    CSR. *)

val pp_witness : Format.formatter -> witness -> unit

val hierarchy_consistent : report -> bool
(** [berge ⇒ gamma ⇒ beta ⇒ alpha] — sanity predicate used by tests and
    the benchmark harness. *)
