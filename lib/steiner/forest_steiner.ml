open Graphs

(* A connected graph is a tree iff m = n - 1. Pruning non-terminal
   leaves to a fixpoint leaves the union of the terminal-to-terminal
   paths, whatever the order; a queue does it in one pass, each node
   entering it once — when its remaining degree first drops to 1 (or
   at the start, if it is a leaf already). *)
let solve_csr csr ~terminals =
  let n = Csr.n csr in
  match (Iset.min_elt_opt terminals, Iset.max_elt_opt terminals) with
  | None, _ | _, None -> Some Tree.empty
  | Some lo, Some hi ->
    if lo < 0 || hi >= n || Csr.m csr <> n - 1 then None
    else begin
      let keep = Bitset.create n in
      Iset.iter (Bitset.add keep) terminals;
      let degree = Array.init n (Csr.degree csr) in
      let queue = Array.make n 0 and tail = ref 0 in
      let enqueue v =
        queue.(!tail) <- v;
        incr tail
      in
      for v = 0 to n - 1 do
        if degree.(v) <= 1 && not (Bitset.mem keep v) then enqueue v
      done;
      let head = ref 0 in
      while !head < !tail do
        let v = queue.(!head) in
        incr head;
        degree.(v) <- 0;
        Csr.iter_neighbors csr v (fun u ->
            if degree.(u) > 0 then begin
              degree.(u) <- degree.(u) - 1;
              if degree.(u) = 1 && not (Bitset.mem keep u) then enqueue u
            end)
      done;
      let nodes = ref Iset.empty in
      for v = n - 1 downto 0 do
        if degree.(v) > 0 || Bitset.mem keep v then nodes := Iset.add v !nodes
      done;
      Tree.of_csr_node_set csr !nodes
    end

let solve g ~terminals =
  if Iset.is_empty terminals then Some Tree.empty
  else
    match Traverse.component_containing g terminals with
    | None -> None
    | Some comp ->
      let csr, ids, _ = Cover.slice g ~within:comp in
      solve_csr csr ~terminals:(Iset.map (Csr.local_index ids) terminals)
      |> Option.map (Tree.relabel ids)
