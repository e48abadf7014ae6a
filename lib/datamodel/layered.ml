open Graphs
open Bipartite
open Steiner

type t = {
  level_names : string list list;  (* level 0 first *)
  defs : (string * string list) list;
  left : string array;  (* even levels, in level order *)
  right : string array;  (* odd levels *)
  compiled : Engine.Compiled.t Lazy.t;
      (* bigraph + classification, built at most once per hierarchy *)
}

let position arr name =
  let rec go i =
    if i >= Array.length arr then None
    else if arr.(i) = name then Some i
    else go (i + 1)
  in
  go 0

let build_bigraph ~left ~right defs =
  let edges =
    List.concat_map
      (fun (n, parts) ->
        List.map
          (fun p ->
            (* One endpoint is on an even level, the other on the
               adjacent odd level. *)
            (* Unreachable through [make], which validates every
               definition entry (including duplicates) against the
               level structure. *)
            let bad who =
              invalid_arg ("Layered.to_bigraph: unknown object: " ^ who)
            in
            match (position left n, position right n) with
            | Some i, _ -> (
              match position right p with
              | Some j -> (i, j)
              | None -> bad p)
            | None, Some j -> (
              match position left p with
              | Some i -> (i, j)
              | None -> bad p)
            | None, None -> bad n)
          parts)
      defs
  in
  Bigraph.of_edges ~nl:(Array.length left) ~nr:(Array.length right) edges

let make ~levels ~definitions =
  let all = List.concat levels in
  if List.length (List.sort_uniq compare all) <> List.length all then
    invalid_arg "Layered.make: duplicate object name";
  let def_names = List.map fst definitions in
  (* [to_bigraph] walks every definition entry, so a duplicate whose
     second occurrence was never validated used to reach the graph
     construction unchecked — reject duplicates outright. *)
  if List.length (List.sort_uniq compare def_names) <> List.length def_names
  then invalid_arg "Layered.make: duplicate definition";
  let level_of_name = Hashtbl.create 16 in
  List.iteri
    (fun l names -> List.iter (fun n -> Hashtbl.replace level_of_name n l) names)
    levels;
  (* Every object above level 0 needs a definition in terms of the
     level immediately below. *)
  List.iteri
    (fun l names ->
      if l > 0 then
        List.iter
          (fun n ->
            match List.assoc_opt n definitions with
            | None | Some [] ->
              invalid_arg ("Layered.make: object without definition: " ^ n)
            | Some _ -> ())
          names)
    levels;
  List.iter
    (fun (n, parts) ->
      match Hashtbl.find_opt level_of_name n with
      | Some l when l > 0 ->
        List.iter
          (fun p ->
            match Hashtbl.find_opt level_of_name p with
            | Some lp when lp = l - 1 -> ()
            | Some _ ->
              invalid_arg
                (Printf.sprintf
                   "Layered.make: %s (level %d) references %s outside level %d"
                   n l p (l - 1))
            | None -> invalid_arg ("Layered.make: unknown object " ^ p))
          parts
      | Some _ -> invalid_arg ("Layered.make: level-0 object has a definition: " ^ n)
      | None -> invalid_arg ("Layered.make: definition for unknown object " ^ n))
    definitions;
  let left =
    Array.of_list
      (List.concat (List.filteri (fun l _ -> l mod 2 = 0) levels))
  in
  let right =
    Array.of_list
      (List.concat (List.filteri (fun l _ -> l mod 2 = 1) levels))
  in
  {
    level_names = levels;
    defs = definitions;
    left;
    right;
    compiled =
      lazy (Engine.Compiled.compile (build_bigraph ~left ~right definitions));
  }

let n_levels t = List.length t.level_names
let objects t = List.concat t.level_names

let level_of t name =
  let rec go l = function
    | [] -> None
    | names :: rest -> if List.mem name names then Some l else go (l + 1) rest
  in
  go 0 t.level_names

let compiled t = Lazy.force t.compiled
let to_bigraph t = Engine.Compiled.graph (compiled t)

let object_index t name =
  match position t.left name with
  | Some i -> Some i
  | None -> (
    match position t.right name with
    | Some j -> Some (Array.length t.left + j)
    | None -> None)

let object_name t v =
  let nl = Array.length t.left in
  if v >= 0 && v < nl then t.left.(v)
  else if v >= nl && v < nl + Array.length t.right then t.right.(v - nl)
  else invalid_arg "Layered.object_name: out of range"

let profile t = Engine.Compiled.profile (compiled t)

(* Distinguish an unknown name (a typed instance error) from a
   disconnected query: the two used to collapse into [None]. *)
let resolve t names =
  let rec go acc = function
    | [] -> Ok acc
    | n :: rest -> (
      match object_index t n with
      | Some v -> go (Iset.add v acc) rest
      | None -> Error n)
  in
  go Iset.empty names

let minimal_connection t ~objects =
  match resolve t objects with
  | Error n -> Error (Runtime.Errors.Invalid_instance ("unknown object: " ^ n))
  | Ok p ->
    if Iset.cardinal p > Dreyfus_wagner.max_terminals then
      Error
        (Runtime.Errors.Invalid_instance
           (Printf.sprintf "more than %d distinct objects"
              Dreyfus_wagner.max_terminals))
    else
      let csr = Bigraph.csr (Engine.Compiled.graph (compiled t)) in
      (match Dreyfus_wagner.solve_csr csr ~terminals:p with
      | None -> Error Runtime.Errors.Disconnected_terminals
      | Some tree ->
        Ok
          ( List.map (object_name t) (Iset.elements tree.Tree.nodes),
            List.map
              (fun (u, v) -> (object_name t u, object_name t v))
              tree.Tree.edges ))

let interpretations ?(k = 3) t ~objects =
  match resolve t objects with
  | Error _ -> []
  | Ok p ->
    let g = Engine.Compiled.ugraph (compiled t) in
    Kbest.enumerate ~max_trees:k g ~terminals:p
    |> List.map (fun tree ->
           List.map (object_name t) (Iset.elements tree.Tree.nodes))
