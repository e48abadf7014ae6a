(** Streaming degree-bounded workloads for the million-node scale pass.

    An instance is a disjoint union of bounded-size blocks (each a
    small schema pattern of a known chordality class), described by
    O(#blocks) offset tables and a deterministic per-block hash — never
    by an edge list. {!iter_edges} re-derives the edges on demand and
    replays identically, which is exactly the contract of
    {!Graphs.Csr.of_edge_iter}'s two-pass build; edges stream out block
    by block in near-ascending order, the CSR-friendly layout.

    Class per family (pinned by test/test_scale.ml on small instances):
    [Forest] is (4,1)-chordal, [Chordal62] is (6,2)- but not
    (4,1)-chordal (γ-acyclic relation trees with disjoint separators),
    [Alpha] is α-acyclic but not (6,2)-chordal (overlapping
    separators). *)

open Graphs
open Bipartite

type family = Forest | Chordal62 | Alpha

val family_name : family -> string

val family_of_string : string -> family option

type t
(** An instance description: family, seed, block offsets. O(#blocks)
    memory; the edges exist only as a replayable stream. *)

val make : family -> target_n:int -> seed:int -> t
(** Smallest instance of at least [target_n] total (left + right)
    nodes. Deterministic per ([family], [seed]). *)

val family : t -> family
val n_blocks : t -> int
val nl : t -> int
val nr : t -> int
val n : t -> int
val m : t -> int

val iter_edges : t -> (int -> int -> unit) -> unit
(** [(left, right)] index pairs, block by block; replayable. *)

val to_bigraph : t -> Bigraph.t
(** Direct-to-CSR construction ({!Bipartite.Bigraph.of_edge_iter}): no
    per-node set is ever materialised. *)

val to_csr : t -> Csr.t
(** Underlying flat adjacency of {!to_bigraph} (n = nl + nr, rights
    shifted by nl). *)

val block_terminals : t -> block:int -> k:int -> Iset.t
(** [k] evenly spaced left nodes of one block, as underlying indices —
    a feasible (single-component) terminal set chosen by pure index
    arithmetic, so query workloads at n = 10^6 need no adjacency
    access. Clamped to the block's size. *)
