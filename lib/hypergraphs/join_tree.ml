open Graphs

type t = { hypergraph : Hypergraph.t; parent : int array }

let make hypergraph ~parent =
  if Array.length parent <> Hypergraph.n_edges hypergraph then
    invalid_arg "Join_tree.make: parent array length mismatch";
  (* Reject cycles by walking each chain; a chain longer than the number
     of edges must loop. *)
  let q = Array.length parent in
  Array.iteri
    (fun i _ ->
      let rec walk j steps =
        if steps > q then invalid_arg "Join_tree.make: parent cycle"
        else if parent.(j) >= 0 then walk parent.(j) (steps + 1)
      in
      walk i 0)
    parent;
  { hypergraph; parent }

let roots t =
  let acc = ref [] in
  Array.iteri (fun j p -> if p = -1 then acc := j :: !acc) t.parent;
  List.rev !acc

let verify t =
  let h = t.hypergraph in
  let q = Hypergraph.n_edges h in
  (* Build the undirected forest on edge indices. *)
  let forest = Ugraph.Builder.create q in
  Array.iteri
    (fun i p -> if p >= 0 then Ugraph.Builder.add_edge forest i p)
    t.parent;
  let forest = Ugraph.Builder.build forest in
  Iset.for_all
    (fun v ->
      let occ = Hypergraph.incident h v in
      Traverse.connects ~within:(Iset.range q) forest occ)
    (Hypergraph.covered_nodes h)

let children_arrays t =
  (* One counting pass instead of a parent-array scan per node. *)
  let q = Array.length t.parent in
  let counts = Array.make q 0 in
  Array.iter (fun p -> if p >= 0 then counts.(p) <- counts.(p) + 1) t.parent;
  let out = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make q 0 in
  Array.iteri
    (fun j p ->
      if p >= 0 then begin
        out.(p).(fill.(p)) <- j;
        fill.(p) <- fill.(p) + 1
      end)
    t.parent;
  out

let preorder t =
  let acc = ref [] in
  let kids = children_arrays t in
  let rec visit i =
    acc := i :: !acc;
    Array.iter visit kids.(i)
  in
  List.iter visit (roots t);
  List.rev !acc

let order t = Array.of_list (preorder t)

let rip_holds h order =
  let rec go seen prefix_union = function
    | [] -> true
    | i :: rest ->
      let e = Hypergraph.edge h i in
      let inter = Iset.inter e prefix_union in
      let witnessed =
        Iset.is_empty inter
        || List.exists (fun j -> Iset.subset inter (Hypergraph.edge h j)) seen
      in
      witnessed && go (i :: seen) (Iset.union prefix_union e) rest
  in
  match order with
  | [] -> true
  | first :: rest -> go [ first ] (Hypergraph.edge h first) rest
