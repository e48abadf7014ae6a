let iter_maximal_cliques ?within g f =
  let w = Ugraph.default_within g within in
  let adj u = Ugraph.adj_within g ~within:w u in
  (* Bron–Kerbosch with a pivot chosen to maximise |P ∩ N(pivot)|. *)
  let rec bk r p x =
    if Iset.is_empty p && Iset.is_empty x then f r
    else begin
      let candidates = Iset.union p x in
      let pivot, _ =
        Iset.fold
          (fun u ((_, best) as acc) ->
            let score = Iset.cardinal (Iset.inter p (adj u)) in
            if score > best then (u, score) else acc)
          candidates
          (Iset.min_elt candidates, -1)
      in
      let expand = Iset.diff p (adj pivot) in
      let p = ref p and x = ref x in
      Iset.iter
        (fun v ->
          bk (Iset.add v r) (Iset.inter !p (adj v)) (Iset.inter !x (adj v));
          p := Iset.remove v !p;
          x := Iset.add v !x)
        expand
    end
  in
  if not (Iset.is_empty w) then bk Iset.empty w Iset.empty

let maximal_cliques ?within g =
  let acc = ref [] in
  iter_maximal_cliques ?within g (fun c -> acc := c :: !acc);
  List.rev !acc

let max_clique_size ?within g =
  let best = ref 0 in
  iter_maximal_cliques ?within g (fun c -> best := max !best (Iset.cardinal c));
  !best
