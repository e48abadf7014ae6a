let spanning_forest ?within g =
  let w = Ugraph.default_within g within in
  let seen = Array.make (Ugraph.n g) false in
  let acc = ref [] in
  let visit s =
    if (not seen.(s)) && Iset.mem s w then begin
      seen.(s) <- true;
      let q = Queue.create () in
      Queue.add s q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        Iset.iter
          (fun v ->
            if not seen.(v) then begin
              seen.(v) <- true;
              acc := (u, v) :: !acc;
              Queue.add v q
            end)
          (Ugraph.adj_within g ~within:w u)
      done
    end
  in
  Iset.iter visit w;
  List.rev !acc

let spanning_tree ?within g =
  let w = Ugraph.default_within g within in
  let es = spanning_forest ~within:w g in
  if List.length es = max 0 (Iset.cardinal w - 1) then Some es else None

let is_tree ?within g =
  let w = Ugraph.default_within g within in
  if Iset.is_empty w then true
  else
    Traverse.is_connected ~within:w g
    &&
    let count =
      Iset.fold
        (fun u acc -> acc + Iset.cardinal (Ugraph.adj_within g ~within:w u))
        w 0
    in
    count / 2 = Iset.cardinal w - 1

let tree_check_by mem_edge ~over es =
  let touched =
    List.fold_left
      (fun s (u, v) -> Iset.add u (Iset.add v s))
      Iset.empty es
  in
  let all_edges_exist = List.for_all (fun (u, v) -> mem_edge u v) es in
  let covers =
    if Iset.cardinal over <= 1 then Iset.subset touched over
    else Iset.equal touched over
  in
  let edge_count_ok = List.length es = max 0 (Iset.cardinal over - 1) in
  (* Connectivity of the edge set: union-find over the edges. *)
  let parent = Hashtbl.create 16 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | None | Some (-1) -> x
    | Some p ->
      let r = find p in
      Hashtbl.replace parent x r;
      r
  in
  let union x y =
    let rx = find x and ry = find y in
    if rx <> ry then Hashtbl.replace parent rx ry
  in
  List.iter (fun (u, v) -> union u v) es;
  let connected =
    match Iset.min_elt_opt over with
    | None -> true
    | Some r0 ->
      let root = find r0 in
      Iset.for_all (fun v -> find v = root) over
  in
  all_edges_exist && covers && edge_count_ok && connected

let tree_check g = tree_check_by (Ugraph.mem_edge g)
