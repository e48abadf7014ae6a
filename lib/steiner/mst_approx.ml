open Graphs

(* BFS recording distances and parent pointers in one pass. Neighbor
   iteration is ascending over the sorted CSR rows, like
   [Traverse.bfs], so the distances — and the parent-pointer paths —
   match a [Traverse.shortest_path] expansion. *)
let bfs_into csr ~queue ~dist ~parent start =
  dist.(start) <- 0;
  parent.(start) <- -1;
  queue.(0) <- start;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    Csr.iter_neighbors csr u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          parent.(v) <- u;
          queue.(!tail) <- v;
          incr tail
        end)
  done

(* The first terminal's BFS doubles as the connectivity check, so the
   span opens only on connected terminals. *)
let solve_csr ?(trace = Observe.Trace.disabled) csr ~terminals =
  let n = Csr.n csr in
  let terms = Array.of_list (Iset.elements terminals) in
  let t = Array.length terms in
  if t <= 1 then Some { Tree.nodes = terminals; edges = [] }
  else if Array.exists (fun v -> v < 0 || v >= n) terms then None
  else
  let queue = Array.make n 0 in
  let dists = Array.init t (fun _ -> Array.make n (-1)) in
  let parents = Array.init t (fun _ -> Array.make n (-1)) in
  bfs_into csr ~queue ~dist:dists.(0) ~parent:parents.(0) terms.(0);
  if Array.exists (fun v -> dists.(0).(v) < 0) terms then None
  else
  Observe.Trace.span trace "mst_approx"
    ~attrs:[ ("terminals", Observe.Trace.Int t) ]
  @@ fun () ->
  for j = 1 to t - 1 do
    bfs_into csr ~queue ~dist:dists.(j) ~parent:parents.(j) terms.(j)
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
     [of_csr_node_set] rejects with [None] instead of crashing. *)
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
  match Tree.of_csr_node_set csr !nodes with
  | None -> None
  | Some tree -> (
    let pruned = Tree.prune_leaves ~keep:terminals tree in
    match Tree.of_csr_node_set csr pruned.Tree.nodes with
    | Some t ->
      Observe.Trace.add_attr trace "tree_nodes"
        (Observe.Trace.Int (Tree.node_count t));
      Some t
    | None -> None)

let solve ?trace g ~terminals = solve_csr ?trace (Csr.of_ugraph g) ~terminals
