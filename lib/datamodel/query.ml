open Graphs
open Bipartite
open Steiner

type connection = {
  objects : string list;
  auxiliary : string list;
  relations_used : string list;
  attributes_used : string list;
  tree_edges : (string * string) list;
  optimal : bool;
}

type error =
  | Unknown_object of string
  | Disconnected
  | Not_applicable of string

let terminals_of_objects schema objects =
  let rec go acc = function
    | [] -> Ok acc
    | name :: rest -> (
      match Schema.object_index schema name with
      | Some v -> go (Iset.add v acc) rest
      | None -> Error (Unknown_object name))
  in
  go Iset.empty objects

let connection_of_tree schema ~query tree ~optimal =
  let g = Schema.to_bigraph schema in
  let name v = Schema.object_name schema v in
  let nodes = tree.Tree.nodes in
  let objects = List.map name (Iset.elements nodes) in
  let auxiliary =
    List.map name (Iset.elements (Iset.diff nodes query))
  in
  let relations_used =
    List.map name (Iset.elements (Iset.inter nodes (Bigraph.right_nodes g)))
  in
  let attributes_used =
    List.map name (Iset.elements (Iset.inter nodes (Bigraph.left_nodes g)))
  in
  let tree_edges = List.map (fun (u, v) -> (name u, name v)) tree.Tree.edges in
  { objects; auxiliary; relations_used; attributes_used; tree_edges; optimal }

(* The engine's one ladder on the schema's cached plan: (4,1) forest
   paths, Algorithm 2 on (6,2)-chordal schemes, Dreyfus–Wagner up to
   its terminal cap, else the elimination heuristic. Un-budgeted, so
   the only error a resolved, non-empty object set can meet is
   disconnection. *)
let minimal_connection schema ~objects =
  match terminals_of_objects schema objects with
  | Error e -> Error e
  | Ok p when Iset.is_empty p ->
    Ok (connection_of_tree schema ~query:p Tree.empty ~optimal:true)
  | Ok p -> (
    let session = Engine.Session.create (Schema.compiled schema) in
    match Engine.Session.query session ~p with
    | Ok s ->
      Ok
        (connection_of_tree schema ~query:p s.Engine.Session.tree
           ~optimal:s.Engine.Session.optimal)
    | Error Runtime.Errors.Disconnected_terminals -> Error Disconnected
    | Error e -> Error (Not_applicable (Runtime.Errors.to_string e)))

(* Algorithm 1 on the schema's cached plan: the only errors left are
   disconnection and a component that is not α-acyclic. *)
let min_relations schema ~objects =
  match terminals_of_objects schema objects with
  | Error e -> Error e
  | Ok p when Iset.is_empty p ->
    Ok (connection_of_tree schema ~query:p Tree.empty ~optimal:true, 0)
  | Ok p -> (
    let session = Engine.Session.create (Schema.compiled schema) in
    match Engine.Session.query_relations session ~p with
    | Ok r ->
      Ok (connection_of_tree schema ~query:p r.Algorithm1.tree ~optimal:true,
          r.Algorithm1.v2_count)
    | Error Runtime.Errors.Disconnected_terminals -> Error Disconnected
    | Error _ -> Error (Not_applicable "scheme hypergraph is not alpha-acyclic"))

let weighted_connection schema ~objects ~cost =
  match terminals_of_objects schema objects with
  | Error e -> Error e
  | Ok p ->
    let g = Schema.to_bigraph schema in
    let u = Bigraph.ugraph g in
    if Iset.cardinal p > Dreyfus_wagner.max_terminals then
      Error (Not_applicable "too many query objects for exact search")
    else (
      match
        Weighted.solve u
          ~weight:(fun v -> cost (Schema.object_name schema v))
          ~terminals:p
      with
      | None -> Error Disconnected
      | Some (tree, total) ->
        Ok (connection_of_tree schema ~query:p tree ~optimal:true, total))

let is_unambiguous schema ~objects =
  match terminals_of_objects schema objects with
  | Error e -> Error e
  | Ok p ->
    let g = Schema.to_bigraph schema in
    let u = Bigraph.ugraph g in
    if not (Graphs.Traverse.connects u p) then Error Disconnected
    else if Iset.cardinal p > Dreyfus_wagner.max_terminals then
      Error (Not_applicable "too many query objects for exact search")
    else begin
      let trees = Kbest.enumerate ~max_trees:8 ~max_extra:0 u ~terminals:p in
      let node_sets =
        List.fold_left
          (fun acc t ->
            if List.exists (fun s -> Iset.equal s t.Tree.nodes) acc then acc
            else t.Tree.nodes :: acc)
          [] trees
      in
      Ok (List.length node_sets <= 1)
    end

(* Alternative interpretations: force one extra object into the
   connection and re-solve exactly; keep only trees whose every leaf is
   a query object (a forced object left dangling as a leaf is not a
   different navigation, just a decorated copy of another answer). *)
let interpretations ?(k = 3) schema ~objects =
  match terminals_of_objects schema objects with
  | Error _ -> []
  | Ok p ->
    if Iset.cardinal p + 1 > Dreyfus_wagner.max_terminals then
      match minimal_connection schema ~objects with
      | Ok c -> [ c ]
      | Error _ -> []
    else begin
      let g = Schema.to_bigraph schema in
      let u = Bigraph.ugraph g in
      let dedupe_by_nodes trees =
        List.fold_left
          (fun acc tr ->
            if List.exists (fun t' -> Iset.equal t'.Tree.nodes tr.Tree.nodes) acc
            then acc
            else tr :: acc)
          [] trees
        |> List.rev
      in
      let candidates =
        Kbest.enumerate ~max_trees:(4 * k) u ~terminals:p |> dedupe_by_nodes
      in
      List.filteri (fun i _ -> i < k) candidates
      |> List.mapi (fun i tree ->
             connection_of_tree schema ~query:p tree ~optimal:(i = 0))
    end

let pp_connection ppf c =
  Format.fprintf ppf "@[<v>connection over {%s}@,auxiliary: {%s}@,edges:"
    (String.concat ", " c.objects)
    (String.concat ", " c.auxiliary);
  List.iter (fun (a, b) -> Format.fprintf ppf "@,  %s -- %s" a b) c.tree_edges;
  Format.fprintf ppf "@,%s@]"
    (if c.optimal then "(provably minimal)" else "(heuristic)")
