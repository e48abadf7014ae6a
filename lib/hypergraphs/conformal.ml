open Graphs

exception Found of int * int * int

(* Gilmore's criterion on the incidence CSR: nodes below [boundary],
   hyperedge [i] at vertex [boundary + i]. Only a triangle of the
   intersection graph can violate it: if e_i ∩ e_j = ∅, the union of the
   pairwise intersections lies inside e_k. Triangles are enumerated in
   lexicographic order — i ascending, j ∈ N(i) above i ascending, then
   k ∈ N(i) ∩ N(j) above j ascending — so the first violation is the
   first violating triple of the plain triple loop.

   Rows of the intersection graph are built lazily by stamping:
   [reach_i.(k) = i] marks k ∈ N(i), [reach_j.(k) = j] marks k ∈ N(j),
   and [in_i]/[in_j] mark the nodes of e_i and e_j the same way, so no
   stamp is ever cleared. For a triangle (i, j, k), [s] holds the
   union: e_i ∩ e_j as a prefix, then the nodes of e_k in exactly one
   of e_i, e_j. A hyperedge containing it passes through its node of
   least degree, so only those hyperedges are tested. *)
let incidence t ~boundary =
  let q = Csr.n t - boundary in
  let in_i = Array.make boundary (-1) and in_j = Array.make boundary (-1) in
  let reach_i = Array.make q (-1) and reach_j = Array.make q (-1) in
  let s = Array.make boundary 0 in
  let above reach j f =
    Csr.iter_neighbors t (boundary + j) (fun v ->
        Csr.iter_neighbors t v (fun e ->
            let k = e - boundary in
            if k > j && reach.(k) <> j then begin
              reach.(k) <- j;
              f k
            end))
  in
  let contained len =
    let pivot = ref s.(0) in
    for a = 1 to len - 1 do
      if Csr.degree t s.(a) < Csr.degree t !pivot then pivot := s.(a)
    done;
    let rec inside e a =
      a >= len || (Csr.mem_edge t e s.(a) && inside e (a + 1))
    in
    not (Csr.for_all_neighbors t !pivot (fun e -> not (inside e 0)))
  in
  try
    for i = 0 to q - 1 do
      Csr.iter_neighbors t (boundary + i) (fun v -> in_i.(v) <- i);
      let row = ref [] in
      above reach_i i (fun k -> row := k :: !row);
      let row = Array.of_list !row in
      Array.sort Int.compare row;
      Array.iteri
        (fun a j ->
          Csr.iter_neighbors t (boundary + j) (fun v -> in_j.(v) <- j);
          above reach_j j ignore;
          let shared =
            Csr.fold_neighbors t (boundary + j)
              (fun len v ->
                if in_i.(v) = i then begin
                  s.(len) <- v;
                  len + 1
                end
                else len)
              0
          in
          for b = a + 1 to Array.length row - 1 do
            let k = row.(b) in
            if reach_j.(k) = j then begin
              let len =
                Csr.fold_neighbors t (boundary + k)
                  (fun len v ->
                    if (in_i.(v) = i) <> (in_j.(v) = j) then begin
                      s.(len) <- v;
                      len + 1
                    end
                    else len)
                  shared
              in
              if not (contained len) then raise (Found (i, j, k))
            end
          done)
        row
    done;
    None
  with Found (i, j, k) -> Some (i, j, k)

let gilmore_violation h =
  let t, boundary = Hypergraph.incidence_csr h in
  incidence t ~boundary

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
