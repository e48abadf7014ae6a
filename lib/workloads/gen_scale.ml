open Graphs
open Bipartite

(* Million-node instances as disjoint unions of bounded-size blocks.
   Each block is a small hand-designed schema pattern whose chordality
   class is known (and pinned by test/test_scale.ml); the union keeps
   the class, since every chordality/acyclicity property in the
   taxonomy is decided component by component. Bounded blocks also keep
   compilation linear: the classifier runs per component, so any
   superlinear factor applies to a constant, not to n.

   Nothing here holds an edge list. An instance is its family, seed and
   per-block offset tables (O(#blocks) ints); [iter_edges] re-derives
   every block's edges on the fly from a splitmix-style hash of
   (seed, block), which makes the stream replayable — exactly what the
   two-pass [Csr.of_edge_iter] needs — and the whole generator
   deterministic per seed. *)

type family = Forest | Chordal62 | Alpha

let family_name = function
  | Forest -> "forest"
  | Chordal62 -> "chordal62"
  | Alpha -> "alpha"

let family_of_string = function
  | "forest" -> Some Forest
  | "chordal62" -> Some Chordal62
  | "alpha" -> Some Alpha
  | _ -> None

(* splitmix64-style finalizer over OCaml's native ints: cheap, stateless,
   and well-distributed enough to vary block shapes. Overflow wraps. *)
let hash seed b =
  let h =
    ref ((seed * 0x1E3779B97F4A7C15) lxor (b * 0x3F58476D1CE4E5B9) lxor 0x2545F4914F6CDD1D)
  in
  h := (!h lxor (!h lsr 30)) * 0x3F58476D1CE4E5B9;
  h := (!h lxor (!h lsr 27)) * 0x14D049BB133111EB;
  (!h lxor (!h lsr 31)) land max_int

(* Per-block shape parameter: a small deterministic variation so the
   workload is not one block stamped n times. *)
let variation seed b = hash seed b mod 3

(* Block shapes, as (lefts, rights, edges) counts plus a local edge
   emitter calling [f left right] with block-local indices.

   forest    — a chain of binary relations a0-R0-a1-R1-a2-…: the
               incidence graph is a path, so the union is a forest,
               (4,1)-chordal.
   chordal62 — a relation tree with pairwise-disjoint 2-attribute
               separators (γ-acyclic, Theorem 1 ⇒ (6,2)-chordal): root
               R0 = {0,1,2,3}, children R1 = {0,1}+fresh and
               R2 = {2,3}+fresh, then a chain hanging off R1's fresh
               pair. The shared pairs create C4s, so it is not
               (4,1)-chordal.
   alpha     — overlapping separators: R0 = {0,1,2}, R1 = {0,1,3},
               R2 = {1,2,4} admit the join tree R1-R0-R2 (α-acyclic)
               but the 6-cycle 0-R1-1-R2-2-R0-0 has exactly one chord
               (R0-1), so the block is not (6,2)-chordal. A short
               Berge chain off attribute 4 varies the size. *)

let forest_chain v = 3 + v (* relations in the chain: 3..5 *)

let chordal62_chain v = v (* extra chain relations: 0..2 *)

let alpha_chain v = v (* extra chain relations: 0..2 *)

let block_dims family v =
  match family with
  | Forest ->
    let k = forest_chain v in
    (k + 1, k, 2 * k)
  | Chordal62 ->
    let c = chordal62_chain v in
    (8 + (2 * c), 3 + c, 4 * (3 + c))
  | Alpha ->
    let c = alpha_chain v in
    (5 + c, 3 + c, 9 + (2 * c))

let block_iter family v f =
  match family with
  | Forest ->
    let k = forest_chain v in
    for t = 0 to k - 1 do
      f t t;
      f (t + 1) t
    done
  | Chordal62 ->
    let c = chordal62_chain v in
    (* R0 = {0,1,2,3} *)
    for a = 0 to 3 do
      f a 0
    done;
    (* R1 = {0,1,4,5}, R2 = {2,3,6,7} *)
    List.iter (fun a -> f a 1) [ 0; 1; 4; 5 ];
    List.iter (fun a -> f a 2) [ 2; 3; 6; 7 ];
    (* chain: R(3+t) = {4+2t, 5+2t} ∪ fresh {8+2t, 9+2t} *)
    for t = 0 to c - 1 do
      let r = 3 + t and base = 4 + (2 * t) in
      f base r;
      f (base + 1) r;
      f (base + 4) r;
      f (base + 5) r
    done
  | Alpha ->
    let c = alpha_chain v in
    List.iter (fun a -> f a 0) [ 0; 1; 2 ];
    List.iter (fun a -> f a 1) [ 0; 1; 3 ];
    List.iter (fun a -> f a 2) [ 1; 2; 4 ];
    (* Berge chain: R(3+t) = {4+t, 5+t} *)
    for t = 0 to c - 1 do
      f (4 + t) (3 + t);
      f (5 + t) (3 + t)
    done

type t = {
  family : family;
  seed : int;
  n_blocks : int;
  loff : int array;  (* block b's lefts are loff.(b) .. loff.(b+1)-1 *)
  roff : int array;
  m : int;
}

let make family ~target_n ~seed =
  if target_n < 1 then invalid_arg "Gen_scale.make: target_n must be positive";
  (* Count blocks until the node budget is met, then lay out offsets. *)
  let n_blocks = ref 0 and nodes = ref 0 in
  while !nodes < target_n do
    let bl, br, _ = block_dims family (variation seed !n_blocks) in
    nodes := !nodes + bl + br;
    incr n_blocks
  done;
  let n_blocks = !n_blocks in
  let loff = Array.make (n_blocks + 1) 0 in
  let roff = Array.make (n_blocks + 1) 0 in
  let m = ref 0 in
  for b = 0 to n_blocks - 1 do
    let bl, br, bm = block_dims family (variation seed b) in
    loff.(b + 1) <- loff.(b) + bl;
    roff.(b + 1) <- roff.(b) + br;
    m := !m + bm
  done;
  { family; seed; n_blocks; loff; roff; m = !m }

let family t = t.family
let n_blocks t = t.n_blocks
let nl t = t.loff.(t.n_blocks)
let nr t = t.roff.(t.n_blocks)
let n t = nl t + nr t
let m t = t.m

let iter_edges t f =
  for b = 0 to t.n_blocks - 1 do
    let lo = t.loff.(b) and ro = t.roff.(b) in
    block_iter t.family (variation t.seed b) (fun i j -> f (lo + i) (ro + j))
  done

let to_bigraph t = Bigraph.of_edge_iter ~nl:(nl t) ~nr:(nr t) (iter_edges t)

let to_csr t = Bigraph.csr (to_bigraph t)

(* Deterministic in-block terminal sets: every block is connected, so
   any subset of one block's nodes is a feasible Steiner instance.
   Picks [k] evenly spaced lefts of block [b] — pure index arithmetic,
   usable at n = 10^6 without touching any adjacency. *)
let block_terminals t ~block ~k =
  if block < 0 || block >= t.n_blocks then
    invalid_arg "Gen_scale.block_terminals: block out of range";
  let lo = t.loff.(block) in
  let bl = t.loff.(block + 1) - lo in
  let k = max 1 (min k bl) in
  let pick i = lo + (if k = 1 then 0 else i * (bl - 1) / (k - 1)) in
  Iset.of_list (List.init k pick)
