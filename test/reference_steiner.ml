(* Test oracles for the Steiner rungs the engine runs on a CSR: the
   set-view bodies of the exact Dreyfus–Wagner DP, the (4,1) forest
   pruning and the MST 2-approximation, as they ran on [Ugraph] before
   the kernels moved to the slice's CSR. [Dreyfus_wagner.solve_csr],
   [Forest_steiner.solve_csr] and [Mst_approx.solve_csr] (and their
   set-view wrappers) must return the same trees — node sets and edge
   lists — and the DP must spend the same budget fuel. The exhaustive
   node-weighted oracle prices the DP's [~weight] form. *)

open Graphs

let inf = max_int / 4

(* Reconstruction tags for dp.(mask).(v). *)
type choice =
  | Leaf  (** base case: path from the mask's single terminal *)
  | Merge of int  (** split into submask / complement at [v] *)
  | Via of int  (** tree at [u] extended by a shortest u–v path *)

(* Raised (and caught below) when tree reconstruction hits a state the
   DP invariants say is impossible; degrading to [None] lets the
   runtime ladder fall through instead of crashing the process. *)
exception Reconstruction_failed

let dreyfus_wagner ?within ?(budget = Runtime.Budget.unlimited)
    ?(trace = Observe.Trace.disabled) ?(metrics = Observe.Metrics.disabled) g
    ~terminals =
  let w = match within with Some w -> w | None -> Ugraph.nodes g in
  if not (Iset.subset terminals w) then None
  else if Iset.cardinal terminals <= 1 then
    Some { Steiner.Tree.nodes = terminals; edges = [] }
  else if not (Traverse.connects ~within:w g terminals) then None
  else begin
    let terms = Array.of_list (Iset.elements terminals) in
    let t = Array.length terms in
    if t > Steiner.Dreyfus_wagner.max_terminals then
      invalid_arg "Reference_steiner.dreyfus_wagner: too many terminals";
    let n = Ugraph.n g in
    let full = (1 lsl t) - 1 in
    Observe.Trace.span trace "dreyfus_wagner"
      ~attrs:
        [
          ("terminals", Observe.Trace.Int t);
          ("masks", Observe.Trace.Int (full + 1));
          ("table_cells", Observe.Trace.Int ((full + 1) * n));
        ]
    @@ fun () ->
    Observe.Metrics.observe
      (Observe.Metrics.histogram metrics "dp.table_size"
         ~bounds:[| 1e2; 1e3; 1e4; 1e5; 1e6; 1e7 |])
      (float_of_int ((full + 1) * n));
    (* Distances restricted to [w], from every node (sparse: only nodes
       in w are sources we need, but indexing by node id is simplest). *)
    let dist = Array.init n (fun s -> if Iset.mem s w then Traverse.bfs ~within:w g s else Array.make n (-1)) in
    let d u v = if dist.(u).(v) < 0 then inf else dist.(u).(v) in
    let dp = Array.make_matrix (full + 1) n inf in
    let how = Array.make_matrix (full + 1) n Leaf in
    for i = 0 to t - 1 do
      let mask = 1 lsl i in
      Iset.iter (fun v -> dp.(mask).(v) <- d terms.(i) v) w
    done;
    (* Bucket-queue Dijkstra pass: propagate dp.(mask) along edges of
       unit weight so that dp.(mask).(v) accounts for "grow by a path"
       transitions. *)
    let relax mask =
      let maxd = n + 1 in
      let buckets = Array.make (maxd + 1) [] in
      Iset.iter
        (fun v ->
          let dv = dp.(mask).(v) in
          if dv <= maxd then buckets.(dv) <- v :: buckets.(dv))
        w;
      let settled = Array.make n false in
      for dist_now = 0 to maxd do
        let rec drain () =
          match buckets.(dist_now) with
          | [] -> ()
          | v :: rest ->
            buckets.(dist_now) <- rest;
            if (not settled.(v)) && dp.(mask).(v) = dist_now then begin
              Runtime.Budget.check budget;
              settled.(v) <- true;
              Iset.iter
                (fun u ->
                  if dist_now + 1 < dp.(mask).(u) then begin
                    dp.(mask).(u) <- dist_now + 1;
                    how.(mask).(u) <- Via v;
                    if dist_now + 1 <= maxd then
                      buckets.(dist_now + 1) <- u :: buckets.(dist_now + 1)
                  end)
                (Ugraph.adj_within g ~within:w v)
            end;
            drain ()
        in
        drain ()
      done
    in
    for i = 0 to t - 1 do
      relax (1 lsl i)
    done;
    let rec submasks m sub acc =
      if sub = 0 then acc else submasks m ((sub - 1) land m) (sub :: acc)
    in
    for mask = 1 to full do
      if mask land (mask - 1) <> 0 then begin
        (* Merge transitions: to avoid double work, force the submask to
           contain the mask's lowest terminal. *)
        let low = mask land -mask in
        let subs =
          submasks mask mask []
          |> List.filter (fun sub ->
                 sub <> mask && sub land low <> 0)
        in
        Iset.iter
          (fun v ->
            Runtime.Budget.check budget;
            List.iter
              (fun sub ->
                let cost = dp.(sub).(v) + dp.(mask lxor sub).(v) in
                if cost < dp.(mask).(v) then begin
                  dp.(mask).(v) <- cost;
                  how.(mask).(v) <- Merge sub
                end)
              subs)
          w;
        relax mask
      end
    done;
    (* Best root. *)
    let root = ref (-1) and best = ref inf in
    Iset.iter
      (fun v ->
        if dp.(full).(v) < !best then begin
          best := dp.(full).(v);
          root := v
        end)
      w;
    if !best >= inf then None
    else begin
      let nodes = ref Iset.empty in
      let add_path u v =
        (* Walk from v back toward u along decreasing distance. *)
        let rec go x =
          nodes := Iset.add x !nodes;
          if x <> u then begin
            let pred =
              Iset.fold
                (fun y acc ->
                  match acc with
                  | Some _ -> acc
                  | None -> if d u y = d u x - 1 then Some y else None)
                (Ugraph.adj_within g ~within:w x)
                None
            in
            match pred with
            | Some y -> go y
            | None -> raise Reconstruction_failed
          end
        in
        go v
      in
      let rec rebuild mask v =
        match how.(mask).(v) with
        | Leaf ->
          let i =
            let rec find i = if mask = 1 lsl i then i else find (i + 1) in
            find 0
          in
          add_path terms.(i) v
        | Via u ->
          nodes := Iset.add v !nodes;
          rebuild mask u
        | Merge sub ->
          rebuild sub v;
          rebuild (mask lxor sub) v
      in
      match rebuild full !root with
      | exception Reconstruction_failed -> None
      | () -> (
        (* The collected node set is connected and has exactly opt + 1
           nodes (the reconstruction walks at most opt distinct edges and
           any connected cover needs at least that many), so a spanning
           tree of it is an optimal Steiner tree. *)
        match Spanning.spanning_tree ~within:!nodes g with
        | Some tree_edges ->
          Some { Steiner.Tree.nodes = !nodes; edges = tree_edges }
        | None -> None)
    end
  end

(* The (4,1) rung: prune non-terminal leaves of the terminals' tree
   component in rounds. *)
let forest_steiner g ~terminals =
  if Iset.is_empty terminals then Some Steiner.Tree.empty
  else
    match Traverse.component_containing g terminals with
    | None -> None
    | Some comp ->
      if not (Cycles.is_acyclic ~within:comp g) then None
      else begin
        (* In a tree, the minimal connection is the union of pairwise
           paths; equivalently, prune non-terminal leaves repeatedly. *)
        let rec prune nodes =
          let removable =
            Iset.filter
              (fun v ->
                (not (Iset.mem v terminals))
                && Iset.cardinal (Ugraph.adj_within g ~within:nodes v) <= 1)
              nodes
          in
          if Iset.is_empty removable then nodes
          else prune (Iset.diff nodes removable)
        in
        Steiner.Tree.of_node_set g (prune comp)
      end

(* The MST rung: one BFS per terminal (distances and parent pointers,
   neighbors ascending), Prim on the metric closure, parent-pointer
   expansion, then prune. *)
let bfs_into g ~queue ~dist ~parent start =
  dist.(start) <- 0;
  parent.(start) <- -1;
  queue.(0) <- start;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    Iset.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          parent.(v) <- u;
          queue.(!tail) <- v;
          incr tail
        end)
      (Ugraph.neighbors g u)
  done

let mst_approx ?(trace = Observe.Trace.disabled) g ~terminals =
  if Iset.cardinal terminals <= 1 then
    Some { Steiner.Tree.nodes = terminals; edges = [] }
  else if not (Traverse.connects g terminals) then None
  else
  Observe.Trace.span trace "mst_approx"
    ~attrs:[ ("terminals", Observe.Trace.Int (Iset.cardinal terminals)) ]
  @@ fun () ->
  let n = Ugraph.n g in
  let terms = Array.of_list (Iset.elements terminals) in
  let t = Array.length terms in
  let queue = Array.make n 0 in
  let dists = Array.init t (fun _ -> Array.make n (-1)) in
  let parents = Array.init t (fun _ -> Array.make n (-1)) in
  for j = 0 to t - 1 do
    bfs_into g ~queue ~dist:dists.(j) ~parent:parents.(j) terms.(j)
  done;
  (* Prim's algorithm on the terminal metric closure. *)
  let in_tree = Array.make t false in
  let best_dist = Array.make t max_int in
  let best_from = Array.make t 0 in
  in_tree.(0) <- true;
  for j = 1 to t - 1 do
    best_dist.(j) <- dists.(0).(terms.(j));
    best_from.(j) <- 0
  done;
  let mst_edges = ref [] in
  for _round = 1 to t - 1 do
    let pick = ref (-1) in
    for j = 0 to t - 1 do
      if (not in_tree.(j)) && (!pick < 0 || best_dist.(j) < best_dist.(!pick))
      then pick := j
    done;
    let j = !pick in
    in_tree.(j) <- true;
    mst_edges := (best_from.(j), j) :: !mst_edges;
    for k = 0 to t - 1 do
      if (not in_tree.(k)) && dists.(j).(terms.(k)) < best_dist.(k) then begin
        best_dist.(k) <- dists.(j).(terms.(k));
        best_from.(k) <- j
      end
    done
  done;
  (* Expand MST edges into shortest paths by walking the parent
     pointers of the source terminal's BFS. The terminals share a
     component, so every expansion terminates at the source; an
     unreachable endpoint would mean the graph changed under us, and
     skipping it degrades to a disconnected node set that the final
     [of_node_set] rejects with [None] instead of crashing. *)
  let nodes = ref terminals in
  List.iter
    (fun (a, b) ->
      if dists.(a).(terms.(b)) >= 0 then begin
        let v = ref terms.(b) in
        while !v >= 0 do
          nodes := Iset.add !v !nodes;
          v := parents.(a).(!v)
        done
      end)
    !mst_edges;
  match Steiner.Tree.of_node_set g !nodes with
  | None -> None
  | Some tree -> (
    let pruned = Steiner.Tree.prune_leaves ~keep:terminals tree in
    match Steiner.Tree.of_node_set g pruned.Steiner.Tree.nodes with
    | Some t ->
      Observe.Trace.add_attr trace "tree_nodes"
        (Observe.Trace.Int (Steiner.Tree.node_count t));
      Some t
    | None -> None)

(* Exhaustive node-weighted oracle: the least total weight over every
   connected node set holding the terminals. Exponential; tiny graphs
   only. [Dreyfus_wagner.solve_csr ~weight] must reach it. *)
let weighted_brute g ~weight ~terminals =
  let optional = Iset.diff (Ugraph.nodes g) terminals in
  if Iset.cardinal optional > 18 then
    invalid_arg "Reference_steiner.weighted_brute: too large";
  let elements = Array.of_list (Iset.elements optional) in
  let k = Array.length elements in
  let best = ref None in
  for mask = 0 to (1 lsl k) - 1 do
    let nodes = ref terminals in
    for b = 0 to k - 1 do
      if mask land (1 lsl b) <> 0 then nodes := Iset.add elements.(b) !nodes
    done;
    if Traverse.is_connected ~within:!nodes g then begin
      let cost = Iset.fold (fun v acc -> acc + weight v) !nodes 0 in
      match !best with
      | Some b when b <= cost -> ()
      | _ -> best := Some cost
    end
  done;
  if Iset.is_empty terminals then Some 0 else !best
