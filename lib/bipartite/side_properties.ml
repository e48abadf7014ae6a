open Graphs
open Hypergraphs

(* G's CSR is H¹'s incidence graph, the flip's is H²'s. *)
let oriented g = function Bigraph.V2 -> g | Bigraph.V1 -> Bigraph.flip g

let chordal g side =
  let g = oriented g side in
  Chordal.is_chordal_csr
    (Hypergraph.two_section_csr (Bigraph.csr g) ~boundary:(Bigraph.nl g))

let conformal g side =
  let g = oriented g side in
  Conformal.incidence (Bigraph.csr g) ~boundary:(Bigraph.nl g) = None

let alpha_side g side =
  let g = oriented g side in
  Option.is_some (Mcs.incidence (Bigraph.csr g) ~boundary:(Bigraph.nl g))

let chordal_brute g side =
  let u = Bigraph.ugraph g in
  let witnesses = Bigraph.nodes_of_side g side in
  let ok = ref true in
  Cycles.iter_simple_cycles ~min_len:8 u (fun cycle ->
      if !ok then begin
        let arr = Array.of_list cycle in
        let k = Array.length arr in
        let cycle_distance i j =
          let d = abs (i - j) in
          min d (k - d)
        in
        let witnessed w =
          let adj = Ugraph.neighbors u w in
          let hits =
            List.filteri (fun _ v -> Iset.mem v adj) cycle
            |> List.map (fun v ->
                   let rec pos i = if arr.(i) = v then i else pos (i + 1) in
                   pos 0)
          in
          List.exists
            (fun i -> List.exists (fun j -> cycle_distance i j >= 4) hits)
            hits
        in
        if not (Iset.exists witnessed witnesses) then ok := false
      end);
  !ok

let conformal_brute g side =
  let u = Bigraph.ugraph g in
  let opposite =
    match side with Bigraph.V2 -> Bigraph.left_nodes g | Bigraph.V1 -> Bigraph.right_nodes g
  in
  let witnesses = Bigraph.nodes_of_side g side in
  (* Distance-2 graph on the opposite side: two nodes adjacent when they
     share a neighbor in G. *)
  let n = Bigraph.n g in
  let b = Ugraph.Builder.create n in
  Iset.iter
    (fun x ->
      Iset.iter
        (fun y ->
          if x < y
             && not
                  (Iset.is_empty
                     (Iset.inter (Ugraph.neighbors u x) (Ugraph.neighbors u y)))
          then Ugraph.Builder.add_edge b x y)
        opposite)
    opposite;
  let d2 = Ugraph.Builder.build b in
  let common_witness s =
    let candidates =
      Iset.fold
        (fun x acc ->
          match acc with
          | None -> Some (Iset.inter (Ugraph.neighbors u x) witnesses)
          | Some c -> Some (Iset.inter c (Ugraph.neighbors u x)))
        s None
    in
    match candidates with
    | None -> true
    | Some c -> not (Iset.is_empty c)
  in
  (* Checking maximal cliques suffices: a common witness for a clique
     also serves each of its subsets. Isolated opposite-side nodes form
     singleton cliques; skip them as the fast test does. *)
  List.for_all
    (fun clique ->
      Iset.for_all (fun x -> Iset.is_empty (Ugraph.neighbors u x)) clique
      || common_witness clique)
    (Cliques.maximal_cliques ~within:opposite d2)
