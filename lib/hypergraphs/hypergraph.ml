open Graphs

type t = { universe : int; family : Iset.t array }

let create ~n_nodes family =
  if n_nodes < 0 then invalid_arg "Hypergraph.create: negative universe";
  let check e =
    if Iset.is_empty e then invalid_arg "Hypergraph.create: empty edge";
    match Iset.min_elt e, Iset.max_elt e with
    | lo, hi when lo < 0 || hi >= n_nodes ->
      invalid_arg "Hypergraph.create: node out of range"
    | _ -> ()
  in
  List.iter check family;
  { universe = n_nodes; family = Array.of_list family }

let n_nodes h = h.universe
let n_edges h = Array.length h.family

let edge h i =
  if i < 0 || i >= Array.length h.family then
    invalid_arg "Hypergraph.edge: index out of range";
  h.family.(i)

let edges h = Array.copy h.family

let total_size h =
  Array.fold_left (fun acc e -> acc + Iset.cardinal e) 0 h.family

let incident h v =
  let acc = ref Iset.empty in
  Array.iteri (fun i e -> if Iset.mem v e then acc := Iset.add i !acc) h.family;
  !acc

let covered_nodes h =
  Array.fold_left (fun acc e -> Iset.union acc e) Iset.empty h.family

let mem h ~edge ~node = Iset.mem node h.family.(edge)

let dual h =
  let family =
    Iset.fold
      (fun v acc -> incident h v :: acc)
      (covered_nodes h) []
  in
  { universe = Array.length h.family; family = Array.of_list (List.rev family) }

let two_section h =
  let b = Ugraph.Builder.create h.universe in
  Array.iter
    (fun e ->
      Iset.iter
        (fun u -> Iset.iter (fun v -> if u < v then Ugraph.Builder.add_edge b u v) e)
        e)
    h.family;
  Ugraph.Builder.build b

let incidence_graph h =
  let offset = h.universe in
  let b = Ugraph.Builder.create (h.universe + Array.length h.family) in
  Array.iteri
    (fun i e -> Iset.iter (fun v -> Ugraph.Builder.add_edge b v (offset + i)) e)
    h.family;
  (Ugraph.Builder.build b, offset)

let incidence_csr h =
  let offset = h.universe in
  let add_all add =
    Array.iteri (fun i e -> Iset.iter (fun v -> add v (offset + i)) e) h.family
  in
  (Csr.of_edge_iter ~n:(offset + Array.length h.family) add_all, offset)

(* Each distinct pair once: for node [a], stamp every [b > a] reached
   through [a]'s hyperedges, so a pair two hyperedges share is emitted
   by the first and skipped by the second. *)
let two_section_csr t ~boundary =
  let stamp = Array.make boundary (-1) in
  let b = Csr.Builder.create boundary in
  for a = 0 to boundary - 1 do
    Csr.iter_neighbors t a (fun e ->
        Csr.iter_neighbors t e (fun x ->
            if x > a && stamp.(x) <> a then begin
              stamp.(x) <- a;
              Csr.Builder.add_edge b a x
            end))
  done;
  Csr.Builder.build b

let restrict h nodes =
  let family =
    Array.to_list h.family
    |> List.filter_map (fun e ->
           let e' = Iset.inter e nodes in
           if Iset.is_empty e' then None else Some e')
  in
  { universe = h.universe; family = Array.of_list family }

let remove_node h v = restrict h (Iset.remove v (Iset.range h.universe))

let remove_edge_at h i =
  if i < 0 || i >= Array.length h.family then
    invalid_arg "Hypergraph.remove_edge_at: index out of range";
  let family =
    Array.to_list h.family
    |> List.filteri (fun j _ -> j <> i)
    |> Array.of_list
  in
  { h with family }

let reduce h =
  let keep = Array.make (Array.length h.family) true in
  Array.iteri
    (fun i e ->
      if keep.(i) then
        Array.iteri
          (fun j f ->
            if i <> j && keep.(j) && Iset.subset f e
               && (not (Iset.equal f e) || j > i)
            then keep.(j) <- false)
          h.family)
    h.family;
  let family =
    Array.to_list h.family
    |> List.filteri (fun i _ -> keep.(i))
    |> Array.of_list
  in
  { h with family }

let is_connected h =
  if Array.length h.family = 0 then true
  else begin
    let g, _offset = incidence_graph h in
    let covered = covered_nodes h in
    let present =
      Iset.union covered
        (Iset.of_list
           (List.init (Array.length h.family) (fun i -> h.universe + i)))
    in
    Traverse.is_connected ~within:present g
  end

let equal_modulo_order h1 h2 =
  h1.universe = h2.universe
  && Array.length h1.family = Array.length h2.family
  &&
  let sort f = List.sort Iset.compare (Array.to_list f) in
  List.equal Iset.equal (sort h1.family) (sort h2.family)

let pp ppf h =
  Format.fprintf ppf "@[<v>hypergraph: %d nodes, %d edges" h.universe
    (Array.length h.family);
  Array.iteri
    (fun i e -> Format.fprintf ppf "@,  e%d = %a" i Iset.pp e)
    h.family;
  Format.fprintf ppf "@]"
