(* Set-based reference implementation, kept for differential testing
   and benchmarking; the public [is_perfect_elimination_order] below is
   the CSR port and decides exactly the same predicate. *)
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
           (* The earliest later neighbor must see all the others; this
              suffices by induction (Rose–Tarjan–Lueker). *)
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

let is_perfect_elimination_order ?within g order =
  let w = Ugraph.default_within g within in
  if
    (not (Iset.equal w (Iset.of_list order)))
    || List.length order <> Iset.cardinal w
  then false
  else begin
    let csr = Csr.of_ugraph g in
    (* [order] enumerates exactly the nodes of [w], so [pos.(u) >= 0]
       doubles as the membership test for [w]. *)
    let pos = Array.make (Ugraph.n g) (-1) in
    List.iteri (fun i v -> pos.(v) <- i) order;
    let ok = ref true in
    List.iter
      (fun v ->
        if !ok then begin
          let i = pos.(v) in
          let parent = ref (-1) in
          Csr.iter_neighbors csr v (fun u ->
              if pos.(u) > i && (!parent < 0 || pos.(u) < pos.(!parent)) then
                parent := u);
          if !parent >= 0 then
            Csr.iter_neighbors csr v (fun u ->
                if
                  pos.(u) > i && u <> !parent
                  && not (Csr.mem_edge csr !parent u)
                then ok := false)
        end)
      order;
    !ok
  end

let perfect_elimination_order ?within g =
  let w = Ugraph.default_within g within in
  let candidate = List.rev (Lexbfs.lexbfs_order ~within:w g) in
  if is_perfect_elimination_order ~within:w g candidate then Some candidate
  else None

let is_chordal ?within g = perfect_elimination_order ?within g <> None

let is_chordal_sets ?within g =
  let w = Ugraph.default_within g within in
  let candidate = List.rev (Lexbfs.lexbfs_order_sets ~within:w g) in
  is_perfect_elimination_order_sets ~within:w g candidate

let is_chordal_brute ?within g =
  let w = Ugraph.default_within g within in
  let sub, _ = Ugraph.induced g w in
  not (Cycles.exists_cycle_with_few_chords sub ~min_len:4 ~max_chords:0)

let simplicial_nodes ?within g =
  let w = Ugraph.default_within g within in
  Iset.filter (fun v -> Ugraph.is_clique g (Ugraph.adj_within g ~within:w v)) w
