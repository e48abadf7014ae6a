open Graphs

exception Found of int * int * int

(* Gilmore's criterion over packed machine words: the hyperedges are
   materialised as dense bitsets once, then the O(q^3) triple loop pays
   O(n / word_size) per set operation and allocates nothing — the same
   CSR/bitset treatment the chordality kernels got in PR 1. The
   lexicographically first violating triple is returned, matching the
   Iset reference scan in test/reference_classify.ml witness for
   witness. *)
let gilmore_violation h =
  let q = Hypergraph.n_edges h in
  if q < 3 then None
  else begin
    let n = Hypergraph.n_nodes h in
    let eb = Array.init q (fun i -> Bitset.of_iset ~len:n (Hypergraph.edge h i)) in
    let s = Bitset.create n in
    let tmp = Bitset.create n in
    let ij = Bitset.create n in
    let contained_in_some s =
      let rec go i = i < q && (Bitset.subset s eb.(i) || go (i + 1)) in
      go 0
    in
    try
      for i = 0 to q - 1 do
        for j = i + 1 to q - 1 do
          (* e_i ∩ e_j is loop-invariant in k: hoist it. *)
          Bitset.assign ~dst:ij ~src:eb.(i);
          Bitset.inter_into ij eb.(j);
          for k = j + 1 to q - 1 do
            Bitset.assign ~dst:s ~src:eb.(j);
            Bitset.inter_into s eb.(k);
            Bitset.assign ~dst:tmp ~src:eb.(i);
            Bitset.inter_into tmp eb.(k);
            Bitset.union_into s tmp;
            Bitset.union_into s ij;
            if not (contained_in_some s) then raise (Found (i, j, k))
          done
        done
      done;
      None
    with Found (i, j, k) -> Some (i, j, k)
  end

let is_conformal h = gilmore_violation h = None

let is_conformal_brute h =
  let g = Hypergraph.two_section h in
  let covered = Hypergraph.covered_nodes h in
  let q = Hypergraph.n_edges h in
  let e = Hypergraph.edge h in
  let contained_in_some s =
    let rec go i = i < q && (Iset.subset s (e i) || go (i + 1)) in
    go 0
  in
  List.for_all contained_in_some (Cliques.maximal_cliques ~within:covered g)
