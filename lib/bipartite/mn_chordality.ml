open Graphs
open Hypergraphs

let is_mn_chordal_brute g ~m ~n =
  not
    (Cycles.exists_cycle_with_few_chords (Bigraph.ugraph g) ~min_len:m
       ~max_chords:(n - 1))

let is_41_chordal g = Cycles.is_acyclic (Bigraph.ugraph g)

(* The graph's CSR is H¹'s incidence graph: lefts are H¹'s nodes,
   rights its hyperedges. An isolated right, which H¹ drops, is a
   degree-0 vertex both kernels ignore. *)
let is_62_chordal g = Gamma.acyclic_incidence (Bigraph.csr g)

let is_61_chordal g =
  Beta.acyclic_incidence (Bigraph.csr g) ~boundary:(Bigraph.nl g)

let is_61_chordal_bisimplicial g =
  let u = Bigraph.ugraph g in
  (* Work on a mutable copy of the adjacency via repeated functional
     edge removal; instance sizes keep this comfortably cheap. *)
  let bisimplicial gr x y =
    (* Every neighbor of y (left side) must see every neighbor of x
       (right side); the pairs involving x or y themselves hold by
       membership. *)
    Iset.for_all
      (fun a ->
        Iset.for_all (fun b -> Ugraph.mem_edge gr a b) (Ugraph.neighbors gr x))
      (Ugraph.neighbors gr y)
  in
  let rec eliminate gr =
    if Ugraph.m gr = 0 then true
    else
      let candidate =
        List.find_opt (fun (x, y) -> bisimplicial gr x y) (Ugraph.edges gr)
      in
      match candidate with
      | None -> false
      | Some (x, y) -> eliminate (Ugraph.remove_edge gr x y)
  in
  eliminate u
