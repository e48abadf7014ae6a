open Graphs
open Bipartite

let subsets_ascending set =
  let elements = Array.of_list (Iset.elements set) in
  let k = Array.length elements in
  if k > 22 then invalid_arg "Brute: subset enumeration too large";
  let all = ref [] in
  for mask = 0 to (1 lsl k) - 1 do
    let s = ref Iset.empty in
    for b = 0 to k - 1 do
      if mask land (1 lsl b) <> 0 then s := Iset.add elements.(b) !s
    done;
    all := !s :: !all
  done;
  List.sort
    (fun a b -> compare (Iset.cardinal a) (Iset.cardinal b))
    (List.rev !all)

let steiner ?(budget = Runtime.Budget.unlimited) g ~terminals =
  let optional = Iset.diff (Ugraph.nodes g) terminals in
  let rec first = function
    | [] -> None
    | extra :: rest ->
      Runtime.Budget.check budget;
      let nodes = Iset.union terminals extra in
      if Traverse.is_connected ~within:nodes g then Tree.of_node_set g nodes
      else first rest
  in
  first (subsets_ascending optional)

(* Minimise right-side usage: for a candidate right subset S, the best
   left completion is "p plus every left node adjacent to S" — adding
   left nodes can only help connectivity. The induced subgraph may stay
   disconnected through useless left components, so after the
   feasibility check we shrink to the p-component and prune leaves. *)
let v2_minimum ?(budget = Runtime.Budget.unlimited) g ~p =
  let u = Bigraph.ugraph g in
  let right = Bigraph.right_nodes g in
  let p_right = Iset.inter p right in
  let p_left = Iset.diff p p_right in
  let optional_right = Iset.diff right p_right in
  let feasible s =
    let kept_right = Iset.union p_right s in
    let adjacent_left =
      Iset.filter
        (fun x ->
          not (Iset.is_empty (Iset.inter (Ugraph.neighbors u x) kept_right)))
        (Bigraph.left_nodes g)
    in
    let nodes = Iset.union kept_right (Iset.union p_left adjacent_left) in
    if not (Traverse.connects ~within:nodes u p) then None
    else
      let comp =
        match Traverse.component_containing ~within:nodes u p with
        | Some c -> c
        | None -> nodes
      in
      match Tree.of_node_set u comp with
      | None -> None
      | Some t ->
        let pruned = Tree.prune_leaves ~keep:p t in
        Tree.of_node_set u pruned.Tree.nodes
  in
  let rec first = function
    | [] -> None
    | s :: rest -> (
      Runtime.Budget.check budget;
      match feasible s with
      | Some t -> Some (t, Tree.count_in t right)
      | None -> first rest)
  in
  first (subsets_ascending optional_right)

let v1_minimum ?budget g ~p =
  let flipped = Bigraph.flip g in
  let to_flipped v =
    match Bigraph.node_of_index g v with
    | Bigraph.L i -> Bigraph.index flipped (Bigraph.R i)
    | Bigraph.R j -> Bigraph.index flipped (Bigraph.L j)
  in
  let to_original v =
    match Bigraph.node_of_index flipped v with
    | Bigraph.L j -> Bigraph.index g (Bigraph.R j)
    | Bigraph.R i -> Bigraph.index g (Bigraph.L i)
  in
  match v2_minimum ?budget flipped ~p:(Iset.map to_flipped p) with
  | None -> None
  | Some (t, count) ->
    let nodes = Iset.map to_original t.Tree.nodes in
    let edges =
      List.map
        (fun (a, b) ->
          let a = to_original a and b = to_original b in
          (min a b, max a b))
        t.Tree.edges
    in
    Some ({ Tree.nodes; edges }, count)
