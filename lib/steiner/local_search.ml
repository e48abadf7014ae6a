open Graphs

let tree_of_nodes g ~terminals nodes =
  match Traverse.component_containing ~within:nodes g terminals with
  | None -> None
  | Some comp -> (
    match Tree.of_node_set g comp with
    | None -> None
    | Some t ->
      let pruned = Tree.prune_leaves ~keep:terminals t in
      Tree.of_node_set g pruned.Tree.nodes)

let solve ?(iterations = 200) ~seed g ~terminals =
  match Mst_approx.solve g ~terminals with
  | None -> None
  | Some start ->
    let state = Random.State.make [| seed; 0x10ca1 |] in
    let rand bound = if bound <= 0 then 0 else Random.State.int state bound in
    let current = ref start in
    let try_nodes nodes =
      match tree_of_nodes g ~terminals nodes with
      | Some t when Tree.node_count t < Tree.node_count !current ->
        current := t;
        true
      | Some _ | None -> false
    in
    for _ = 1 to iterations do
      let aux = Iset.elements (Iset.diff (!current).Tree.nodes terminals) in
      if aux <> [] then begin
        let v = List.nth aux (rand (List.length aux)) in
        (* Move 1: plain deletion. *)
        let deleted = Iset.remove v (!current).Tree.nodes in
        if not (try_nodes deleted) then begin
          (* Move 2: deletion plus reconnection of the fragments via
             shortest paths between the terminal components. *)
          match Traverse.component_containing ~within:deleted g terminals with
          | Some _ -> ()
          | None ->
            (* Reconnect the components through a shortest path in the
               full graph avoiding v. *)
            let within = Iset.remove v (Ugraph.nodes g) in
            let comps = Traverse.components ~within:deleted g in
            (match comps with
            | c1 :: c2 :: _ ->
              let pick c = Iset.min_elt c in
              (match
                 Traverse.shortest_path ~within g (pick c1) (pick c2)
               with
              | Some path ->
                let nodes =
                  List.fold_left
                    (fun acc x -> Iset.add x acc)
                    deleted path
                in
                ignore (try_nodes nodes)
              | None -> ())
            | _ -> ())
        end
      end
    done;
    Some !current
