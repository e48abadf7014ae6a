(* Set-based oracles for kernels that run on a CSR in the library:
   chordality by LexBFS and a perfect-elimination-order check on
   [Iset] adjacency, the chord-bounded cycle search by full cycle
   enumeration, a chordless-cycle check, and the pre-CSR construction of a [Gen_scale]
   instance. Each is an independent second implementation: none calls
   the kernel it checks. *)

open Graphs

(* LexBFS by greedy labels: repeatedly visit the unvisited node with
   the lexicographically greatest label (ties to the smallest id), then
   append the visit time to each unvisited neighbor's label. Labels are
   increasing timestamp lists; earlier timestamps are greater symbols,
   and a proper extension of a label beats the label. *)
let rec lex_gt a b =
  match (a, b) with
  | [], _ -> false
  | _ :: _, [] -> true
  | x :: a', y :: b' -> x < y || (x = y && lex_gt a' b')

let lexbfs_order_sets ?within g =
  let w = Ugraph.default_within g within in
  let labels = Hashtbl.create 16 in
  let label v =
    match Hashtbl.find_opt labels v with Some l -> l | None -> []
  in
  let visited = Array.make (Ugraph.n g) false in
  let pick () =
    Iset.fold
      (fun v acc ->
        if visited.(v) then acc
        else
          match acc with
          | Some u when not (lex_gt (label v) (label u)) -> acc
          | Some _ | None -> Some v)
      w None
  in
  let rec loop time order =
    match pick () with
    | None -> List.rev order
    | Some v ->
      visited.(v) <- true;
      Iset.iter
        (fun u ->
          if not visited.(u) then Hashtbl.replace labels u (label u @ [ time ]))
        (Ugraph.adj_within g ~within:w v);
      loop (time + 1) (v :: order)
  in
  loop 0 []

(* For each node, its earliest later neighbor must see all the others;
   this suffices by induction (Rose–Tarjan–Lueker). *)
let is_perfect_elimination_order_sets ?within g order =
  let w = Ugraph.default_within g within in
  let pos = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) order;
  Iset.equal w (Iset.of_list order)
  && List.length order = Iset.cardinal w
  && List.for_all
       (fun v ->
         let i = Hashtbl.find pos v in
         let later =
           Iset.filter
             (fun u -> Hashtbl.find pos u > i)
             (Ugraph.adj_within g ~within:w v)
         in
         match Iset.min_elt_opt later with
         | None -> true
         | Some _ ->
           let parent =
             Iset.fold
               (fun u best ->
                 if Hashtbl.find pos u < Hashtbl.find pos best then u
                 else best)
               later (Iset.max_elt later)
           in
           Iset.subset
             (Iset.remove parent later)
             (Ugraph.adj_within g ~within:w parent))
       order

let is_chordal_sets ?within g =
  let w = Ugraph.default_within g within in
  is_perfect_elimination_order_sets ~within:w g
    (List.rev (lexbfs_order_sets ~within:w g))

let exists_cycle_with_few_chords_sets g ~min_len ~max_chords =
  let exception Found in
  try
    Cycles.iter_simple_cycles ~min_len g (fun c ->
        if List.length (Cycles.chords g c) <= max_chords then raise Found);
    false
  with Found -> true

(* The pre-CSR construction path: materialise the edge list, insert
   every edge into per-node AVL sets with [Ugraph.Builder], and derive
   the CSR from those sets. *)
let to_bigraph_sets t =
  let open Workloads.Gen_scale in
  let edges = ref [] in
  iter_edges t (fun i j -> edges := (i, j) :: !edges);
  let nl = nl t in
  let b = Ugraph.Builder.create (nl + nr t) in
  List.iter (fun (i, j) -> Ugraph.Builder.add_edge b i (nl + j)) (List.rev !edges);
  Bipartite.Bigraph.of_bipartite_ugraph ~nl (Ugraph.Builder.build b)

(* Whether [cycle] lists a chordless cycle of [g] of length at least 4:
   distinct nodes, consecutive ones (and the last with the first)
   adjacent, no chord. *)
let is_chordless_cycle g cycle =
  let a = Array.of_list cycle in
  let k = Array.length a in
  k >= 4
  && Iset.cardinal (Iset.of_list cycle) = k
  && List.for_all
       (fun i -> Ugraph.mem_edge g a.(i) a.((i + 1) mod k))
       (List.init k Fun.id)
  && Cycles.chords g cycle = []
