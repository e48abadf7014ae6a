open Hypergraphs

type degree_goal = To_alpha | To_beta | To_gamma | To_berge

let goal_test = function
  | To_alpha -> Acyclicity.alpha_acyclic
  | To_beta -> Beta.acyclic
  | To_gamma -> Gamma.acyclic
  | To_berge -> Berge.acyclic

let goal_name = function
  | To_alpha -> "alpha-acyclic"
  | To_beta -> "beta-acyclic"
  | To_gamma -> "gamma-acyclic"
  | To_berge -> "Berge-acyclic"

let schema_relations schema =
  List.map
    (fun n -> (n, Schema.relation_attrs schema n))
    (Schema.relation_names schema)

let schema_of_relations rels = Schema.make rels

let satisfies schema goal = goal_test goal (Schema.to_hypergraph schema)

let rec subsets_of_size k = function
  | _ when k = 0 -> [ [] ]
  | [] -> []
  | x :: rest ->
    List.map (fun s -> x :: s) (subsets_of_size (k - 1) rest)
    @ subsets_of_size k rest

let min_deletions ?max_k schema goal =
  let rels = schema_relations schema in
  let names = List.map fst rels in
  let bound =
    match max_k with Some k -> min k (List.length names - 1) | None -> List.length names - 1
  in
  if List.length names > 20 then
    invalid_arg "Repair.min_deletions: schema too large for brute force";
  let feasible deleted =
    let kept = List.filter (fun (n, _) -> not (List.mem n deleted)) rels in
    kept <> [] && satisfies (schema_of_relations kept) goal
  in
  let rec try_size k =
    if k > bound then None
    else
      match List.find_opt feasible (subsets_of_size k names) with
      | Some witness -> Some witness
      | None -> try_size (k + 1)
  in
  try_size 0

let merge_suggestions schema goal =
  let rels = schema_relations schema in
  let pairs =
    List.concat_map
      (fun (a, attrs_a) ->
        List.filter_map
          (fun (b, attrs_b) ->
            if a < b then Some ((a, attrs_a), (b, attrs_b)) else None)
          rels)
      rels
  in
  List.filter_map
    (fun ((a, attrs_a), (b, attrs_b)) ->
      let merged_name = a ^ "+" ^ b in
      let merged = List.sort_uniq compare (attrs_a @ attrs_b) in
      let rels' =
        (merged_name, merged)
        :: List.filter (fun (n, _) -> n <> a && n <> b) rels
      in
      if satisfies (schema_of_relations rels') goal then Some (a, b) else None)
    pairs

let report schema =
  let buf = Buffer.create 256 in
  let current = Schema.acyclicity schema in
  Buffer.add_string buf
    (Printf.sprintf "current degree: %s\n" (Acyclicity.degree_name current));
  (* Name the offending relations for the first missed degree. *)
  let h = Schema.to_hypergraph schema in
  let names = Array.of_list (Schema.relation_names schema) in
  let name_edges es =
    String.concat ", " (List.map (fun e -> names.(e)) es)
  in
  (match Acyclicity.why_not h Acyclicity.Gamma_acyclic with
  | Some (Acyclicity.Gamma_3_cycle (i, j, k)) ->
    Buffer.add_string buf
      (Printf.sprintf "offending pattern: special 3-cycle on %s\n"
         (name_edges [ i; j; k ]))
  | Some (Acyclicity.Beta_cycle es) ->
    Buffer.add_string buf
      (Printf.sprintf "offending pattern: beta-cycle through %s\n"
         (name_edges es))
  | Some (Acyclicity.Berge_cycle (es, _)) ->
    Buffer.add_string buf
      (Printf.sprintf "offending pattern: Berge cycle through %s\n"
         (name_edges es))
  | Some (Acyclicity.Chordless_cycle ns) ->
    Buffer.add_string buf
      (Printf.sprintf "offending pattern: chordless cycle through %s\n"
         (String.concat ", " (List.map (Schema.object_name schema) ns)))
  | Some (Acyclicity.Gilmore_triple (i, j, k)) ->
    Buffer.add_string buf
      (Printf.sprintf "offending pattern: Gilmore triple %s\n"
         (name_edges [ i; j; k ]))
  | None -> ());
  let interesting =
    match current with
    | Acyclicity.Cyclic -> [ To_alpha; To_beta; To_gamma ]
    | Acyclicity.Alpha_acyclic -> [ To_beta; To_gamma ]
    | Acyclicity.Beta_acyclic -> [ To_gamma ]
    | Acyclicity.Gamma_acyclic | Acyclicity.Berge_acyclic -> []
  in
  if interesting = [] then
    Buffer.add_string buf
      "already gamma-acyclic or better: Steiner connections are polynomial \
       (Theorem 5)\n"
  else
    List.iter
      (fun goal ->
        (match min_deletions ~max_k:3 schema goal with
        | Some [] ->
          Buffer.add_string buf
            (Printf.sprintf "%s: already satisfied\n" (goal_name goal))
        | Some deleted ->
          Buffer.add_string buf
            (Printf.sprintf "%s: drop {%s}\n" (goal_name goal)
               (String.concat ", " deleted))
        | None ->
          Buffer.add_string buf
            (Printf.sprintf "%s: no <=3-deletion repair\n" (goal_name goal)));
        match merge_suggestions schema goal with
        | [] -> ()
        | (a, b) :: _ ->
          Buffer.add_string buf
            (Printf.sprintf "%s: or merge %s with %s\n" (goal_name goal) a b))
      interesting;
  Buffer.contents buf
