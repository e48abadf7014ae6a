type answer = { connection : Query.connection; result : Relalg.Relation.t }

(* A single-attribute query can yield a one-node tree with no
   relation: fall back to the first relation holding the output. *)
let relations_for db (c : Query.connection) ~output =
  let all = Relalg.Database.relations db in
  match List.filter (fun (n, _) -> List.mem n c.Query.relations_used) all with
  | [] ->
    Option.to_list
      (List.find_opt
         (fun (_, r) -> List.for_all (Relalg.Relation.mem_attr r) output)
         all)
  | chosen -> chosen

let evaluate_connection ?(where = []) db c ~output =
  let chosen =
    (* Push equality selections down into every chosen relation that
       carries the attribute. *)
    List.map
      (fun (n, r) ->
        ( n,
          List.fold_left
            (fun r (attr, value) ->
              if Relalg.Relation.mem_attr r attr then
                Relalg.Ops.select_eq r ~attr ~value
              else r)
            r where ))
      (relations_for db c ~output)
  in
  (* Only output attributes actually present in the chosen relations
     can be projected; the connection guarantees they all are. *)
  Relalg.Yannakakis.evaluate (Relalg.Database.make chosen) ~output

(* First occurrence wins: a query naming an attribute twice is one
   output column, not a typed-error round trip. *)
let dedup_output output =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun a ->
      if Hashtbl.mem seen a then false
      else begin
        Hashtbl.add seen a ();
        true
      end)
    output

let answer ?(where = []) db ~query =
  let schema = Schema.of_database db in
  let objects =
    List.sort_uniq compare (query @ List.map fst where)
  in
  match Query.minimal_connection schema ~objects with
  | Error e -> Error e
  | Ok c -> (
    let output = dedup_output (List.filter (Schema.is_attribute schema) query) in
    match evaluate_connection ~where db c ~output with
    | Ok result -> Ok { connection = c; result }
    | Error e -> Error (Query.Not_applicable (Runtime.Errors.to_string e)))

let interpretations ?k db ~query =
  let schema = Schema.of_database db in
  let output = dedup_output (List.filter (Schema.is_attribute schema) query) in
  Query.interpretations ?k schema ~objects:query
  |> List.filter_map (fun c ->
         match evaluate_connection db c ~output with
         | Ok result -> Some { connection = c; result }
         | Error _ -> None)
