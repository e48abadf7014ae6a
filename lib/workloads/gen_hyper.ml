open Graphs
open Hypergraphs

let random rng ~n_nodes ~n_edges ~max_size =
  if n_nodes < 1 then invalid_arg "Gen_hyper.random: need nodes";
  let edge () =
    let size = 1 + Rng.int rng (max 1 max_size) in
    let picks = List.init size (fun _ -> Rng.int rng n_nodes) in
    Iset.of_list picks
  in
  Hypergraph.create ~n_nodes (List.init n_edges (fun _ -> edge ()))

(* Join-tree construction. [disjoint_separators] additionally consumes
   separator nodes from the parent's private pool so that any two edges
   intersect only when tree-adjacent, and separators never overlap.
   Edges and their pools live in [lo, hi) of arrays with room for
   n_edges pushes at either end: a joined edge goes last, a new tree
   (every pool exhausted) first, so the family is linear in its size. *)
let join_tree_family rng ~n_edges ~max_size ~max_sep ~disjoint_separators =
  if n_edges < 1 then invalid_arg "Gen_hyper: need at least one edge";
  let fresh = ref 0 in
  let next_fresh () =
    let v = !fresh in
    incr fresh;
    v
  in
  let new_privates () =
    let k = 1 + Rng.int rng (max 1 (max_size - 1)) in
    List.init k (fun _ -> next_fresh ())
  in
  let edges = Array.make (2 * n_edges) Iset.empty
  and pools = Array.make (2 * n_edges) [] in
  let lo = ref n_edges and hi = ref n_edges and live = ref 0 in
  let push_back e pool =
    edges.(!hi) <- e;
    pools.(!hi) <- pool;
    incr hi;
    incr live
  in
  let first = new_privates () in
  push_back (Iset.of_list first) first;
  for _ = 2 to n_edges do
    (* Pick a parent whose pool is still usable. *)
    let parent =
      if !live = 0 then -1
      else begin
        let rec pick () =
          let i = !lo + Rng.int rng (!hi - !lo) in
          if pools.(i) = [] then pick () else i
        in
        pick ()
      end
    in
    let privates = new_privates () in
    if parent < 0 then begin
      (* Every pool exhausted: start a new tree in the forest. *)
      decr lo;
      edges.(!lo) <- Iset.of_list privates;
      pools.(!lo) <- privates;
      incr live
    end
    else begin
      let pool = pools.(parent) in
      let sep_size = 1 + Rng.int rng (max 1 (min max_sep (List.length pool))) in
      let sep_size = min sep_size (List.length pool) in
      let separator = Rng.sample rng sep_size pool in
      if disjoint_separators then begin
        let remaining =
          List.filter (fun v -> not (List.mem v separator)) pool
        in
        pools.(parent) <- remaining;
        if remaining = [] then decr live
      end;
      push_back (Iset.of_list (separator @ privates)) privates
    end
  done;
  Hypergraph.create ~n_nodes:!fresh
    (Array.to_list (Array.sub edges !lo (!hi - !lo)))

let alpha_acyclic rng ~n_edges ~max_size =
  join_tree_family rng ~n_edges ~max_size ~max_sep:max_size
    ~disjoint_separators:false

let gamma_acyclic rng ~n_edges ~max_size =
  join_tree_family rng ~n_edges ~max_size ~max_sep:(max 2 (max_size - 1))
    ~disjoint_separators:true

let berge_acyclic rng ~n_edges ~max_size =
  join_tree_family rng ~n_edges ~max_size ~max_sep:1
    ~disjoint_separators:false

let beta_flower rng ~petals =
  if petals < 2 then invalid_arg "Gen_hyper.beta_flower: need >= 2 petals";
  ignore rng;
  let hub = 0 in
  let petal i = Iset.of_list [ hub; i ] in
  let cover = Iset.of_list (hub :: List.init petals (fun i -> i + 1)) in
  Hypergraph.create ~n_nodes:(petals + 1)
    (List.init petals (fun i -> petal (i + 1)) @ [ cover ])
