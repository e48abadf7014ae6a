(* Tests for the Steiner solvers: exact DP vs the subset-enumeration
   oracle, Algorithm 1 vs the brute V2-minimum, Algorithm 2's exactness
   on (6,2)-chordal graphs (Theorem 5), the approximation baseline, and
   both NP-hardness reductions. *)

open Graphs
open Bipartite
open Steiner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rng_of seed = Workloads.Rng.make ~seed

(* --------------------------------------------------------------- Cover *)

let test_cover_predicates () =
  let g = Ugraph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 4) ] in
  let p = Iset.of_list [ 0; 2 ] in
  check "whole cycle covers" true (Cover.is_cover g ~p (Iset.range 5));
  check "cycle is redundant" false
    (Cover.is_nonredundant_cover g ~p (Iset.range 5));
  check "one arc is nonredundant" true
    (Cover.is_nonredundant_cover g ~p (Iset.of_list [ 0; 1; 2 ]));
  check "other arc also nonredundant (longer)" true
    (Cover.is_nonredundant_cover g ~p (Iset.of_list [ 0; 4; 3; 2 ]));
  check_int "minimum cover size" 3
    (match Cover.minimum_cover_size_brute g ~within:(Iset.range 5) ~p with
    | Some k -> k
    | None -> -1)

let test_eliminate_redundant () =
  let g = Ugraph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 4) ] in
  let p = Iset.of_list [ 0; 2 ] in
  let survivors = Cover.eliminate_redundant g ~within:(Iset.range 5) ~p in
  check "result is a nonredundant cover" true
    (Cover.is_nonredundant_cover g ~p survivors);
  (* Order matters on a C5: starting by deleting node 1 forces the long
     way around. *)
  let long = Cover.eliminate_redundant ~order:[ 1; 3; 4 ] g ~within:(Iset.range 5) ~p in
  check_int "bad order keeps 4 nodes" 4 (Iset.cardinal long)

let test_paths () =
  let g = Ugraph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 4) ] in
  check_int "all paths 0..2 on C5" 2 (List.length (Cover.all_paths g 0 2));
  check "short path nonredundant" true
    (Cover.is_nonredundant_path g [ 0; 1; 2 ]);
  check "long path nonredundant too" true
    (Cover.is_nonredundant_path g [ 0; 4; 3; 2 ]);
  check "C5 has a nonredundant non-minimum path" true
    (Cover.nonredundant_nonminimum_pair g <> None);
  (* On a tree every nonredundant path is the unique path. *)
  let t = Ugraph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  check "tree has no such pair" true
    (Cover.nonredundant_nonminimum_pair t = None)

(* ------------------------------------------------------ Dreyfus-Wagner *)

let test_dw_basics () =
  let g = Ugraph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (1, 4); (4, 5) ] in
  (match Dreyfus_wagner.solve g ~terminals:(Iset.of_list [ 0; 3; 5 ]) with
  | Some t ->
    check "tree verifies" true
      (Tree.verify g ~terminals:(Iset.of_list [ 0; 3; 5 ]) t);
    check_int "optimum node count" 6 (Tree.node_count t)
  | None -> Alcotest.fail "connected instance");
  check "disconnected -> None" true
    (Dreyfus_wagner.solve (Ugraph.create 3) ~terminals:(Iset.of_list [ 0; 2 ])
    = None);
  (match Dreyfus_wagner.solve g ~terminals:(Iset.singleton 2) with
  | Some t -> check_int "singleton tree" 1 (Tree.node_count t)
  | None -> Alcotest.fail "singleton");
  match Dreyfus_wagner.solve g ~terminals:Iset.empty with
  | Some t -> check_int "empty tree" 0 (Tree.node_count t)
  | None -> Alcotest.fail "empty"

let test_dw_within () =
  let g = Ugraph.of_edges ~n:4 [ (0, 1); (1, 2); (0, 3); (3, 2) ] in
  let within = Iset.of_list [ 0; 2; 3 ] in
  match Dreyfus_wagner.solve ~within g ~terminals:(Iset.of_list [ 0; 2 ]) with
  | Some t ->
    check "detour through 3" true (Iset.mem 3 t.Tree.nodes);
    check_int "3 nodes" 3 (Tree.node_count t)
  | None -> Alcotest.fail "connected within"

(* ---------------------------------------------------------- Algorithm 2 *)

let test_alg2_on_62 () =
  let g = Datamodel.Figures.fig3b.Datamodel.Figures.graph in
  let u = Bigraph.ugraph g in
  let p = Iset.of_list [ 0; 2 ] in
  match (Algorithm2.solve u ~p, Dreyfus_wagner.optimum_nodes u ~terminals:p) with
  | Some t, Some opt ->
    check "tree verifies" true (Tree.verify u ~terminals:p t);
    check_int "Theorem 5: elimination is exact here" opt (Tree.node_count t)
  | _ -> Alcotest.fail "solvable instance"

(* Definition 11's elimination over the whole C5 follows the order it
   is given; Algorithm 2 eliminates inside its seed, the BFS path
   0-1-2, where no order has anything left to get wrong. *)
let test_alg2_custom_order () =
  let u = Ugraph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 4) ] in
  let p = Iset.of_list [ 0; 2 ] in
  check "suboptimal on C5 with adversarial order (not (6,2))" true
    (Iset.cardinal
       (Cover.eliminate_redundant ~order:[ 1; 3; 4 ] u ~within:(Iset.range 5)
          ~p)
    > 3);
  match Algorithm2.solve u ~p with
  | Some t ->
    check "the seed 0-1-2 survives" true
      (Iset.equal t.Tree.nodes (Iset.of_list [ 0; 1; 2 ]))
  | None -> Alcotest.fail "connected"

(* ---------------------------------------------------------- Algorithm 1 *)

let test_alg1_fig2 () =
  let g = Datamodel.Figures.fig2.Datamodel.Figures.graph in
  (* P = {A, C} (left 0 and 2). *)
  let p = Iset.of_list [ 0; 2 ] in
  match Algorithm1.solve g ~p with
  | Ok r ->
    check "tree verifies" true
      (Tree.verify (Bigraph.ugraph g) ~terminals:p r.Algorithm1.tree);
    (match Brute.v2_minimum g ~p with
    | Some (_, best) -> check_int "V2 count minimal" best r.Algorithm1.v2_count
    | None -> Alcotest.fail "oracle failed")
  | Error _ -> Alcotest.fail "fig2 is alpha-acyclic on H1"

let test_alg1_rejects_cyclic () =
  (* C8 as bipartite: H1 is a 4-cycle, not alpha-acyclic. *)
  let g = Bigraph.of_edges ~nl:4 ~nr:4
      [ (0, 0); (1, 0); (1, 1); (2, 1); (2, 2); (3, 2); (3, 3); (0, 3) ]
  in
  match Algorithm1.solve g ~p:(Iset.of_list [ 0; 2 ]) with
  | Error Algorithm1.Not_alpha_acyclic -> check "rejected" true true
  | Ok _ | Error _ -> Alcotest.fail "C8 must be rejected"

let test_alg1_disconnected () =
  let g = Bigraph.of_edges ~nl:2 ~nr:2 [ (0, 0); (1, 1) ] in
  match Algorithm1.solve g ~p:(Iset.of_list [ 0; 1 ]) with
  | Error Algorithm1.Disconnected_terminals -> check "disconnected" true true
  | Ok _ | Error _ -> Alcotest.fail "must report disconnection"

let test_alg1_wrt_v1 () =
  let g = Datamodel.Figures.fig2.Datamodel.Figures.graph in
  let p = Iset.of_list [ 0; 2 ] in
  (* H2 of fig2 is cyclic, so the flipped run must be rejected. *)
  match Algorithm1.solve_wrt_v1 g ~p with
  | Error Algorithm1.Not_alpha_acyclic -> check "flip rejected" true true
  | Ok _ | Error _ -> Alcotest.fail "fig2 H2 is cyclic"

(* ----------------------------------------------------------- MST approx *)

let test_mst_approx () =
  let g = Ugraph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (1, 4); (4, 5) ] in
  let terminals = Iset.of_list [ 0; 3; 5 ] in
  match (Mst_approx.solve g ~terminals, Dreyfus_wagner.optimum_nodes g ~terminals) with
  | Some t, Some opt ->
    check "verifies" true (Tree.verify g ~terminals t);
    check "within factor 2 on edges" true
      (Tree.node_count t - 1 <= 2 * (opt - 1))
  | _ -> Alcotest.fail "solvable"

(* ------------------------------------------------------ Forest solver *)

(* The (4,1) rung as the session runs it: the spanning tree of the
   seed cover, which on a forest is the unique minimal connection. *)
let seed_tree g ~terminals =
  let csr = Csr.of_ugraph g in
  Option.bind (Cover.seed csr ~p:terminals) (fun ids ->
      Tree.of_csr_node_set csr (Iset.of_array ids))

let test_forest_solver () =
  let t = Ugraph.of_edges ~n:7 [ (0, 1); (1, 2); (1, 3); (3, 4); (3, 5); (5, 6) ] in
  let terminals = Iset.of_list [ 0; 4; 6 ] in
  (match seed_tree t ~terminals with
  | Some tree ->
    check "verifies" true (Tree.verify t ~terminals tree);
    check_int "unique minimal connection" 6 (Tree.node_count tree);
    check "leaf 2 pruned" false (Iset.mem 2 tree.Tree.nodes);
    check "= leaf pruning" true
      (match Reference_steiner.forest_steiner t ~terminals with
      | Some r ->
        Iset.equal r.Tree.nodes tree.Tree.nodes && r.Tree.edges = tree.Tree.edges
      | None -> false)
  | None -> Alcotest.fail "tree instance");
  check "unreached terminal: no seed" true
    (seed_tree (Ugraph.of_edges ~n:4 [ (0, 1); (2, 3) ])
       ~terminals:(Iset.of_list [ 0; 2 ])
    = None)

let forest_qcheck =
  QCheck2.Test.make ~count:150 ~name:"forest solver = exact DP on random trees"
    QCheck2.Gen.(tup2 (int_range 2 12) (int_range 0 5000))
    (fun (n, seed) ->
      let rng = rng_of seed in
      let t = Workloads.Gen_graph.random_tree rng ~n in
      let terminals =
        Iset.of_list (Workloads.Rng.sample rng (min 3 n) (List.init n Fun.id))
      in
      match
        ( seed_tree t ~terminals,
          Reference_steiner.forest_steiner t ~terminals,
          Dreyfus_wagner.optimum_nodes t ~terminals )
      with
      | Some tree, Some r, Some opt ->
        Tree.node_count tree = opt
        && Iset.equal tree.Tree.nodes r.Tree.nodes
        && tree.Tree.edges = r.Tree.edges
      | None, None, None -> true
      | _ -> false)

(* -------------------------------------------------------- Local search *)

let test_local_search () =
  let rng = rng_of 31 in
  for seed = 0 to 14 do
    let g =
      Bigraph.ugraph (Workloads.Gen_bipartite.gnp rng ~nl:6 ~nr:6 ~p:0.35)
    in
    let terminals =
      Iset.of_list (Workloads.Rng.sample rng 3 (Iset.elements (Ugraph.nodes g)))
    in
    match
      ( Local_search.solve ~seed g ~terminals,
        Mst_approx.solve g ~terminals,
        Dreyfus_wagner.optimum_nodes g ~terminals )
    with
    | Some ls, Some approx, Some opt ->
      check "valid tree" true (Tree.verify g ~terminals ls);
      check "never worse than the MST start" true
        (Tree.node_count ls <= Tree.node_count approx);
      check "never better than the optimum" true (Tree.node_count ls >= opt)
    | None, None, None -> ()
    | _ -> Alcotest.fail "solver disagreement on feasibility"
  done

(* ------------------------------------------------------------- X3C *)

let test_x3c_solver () =
  let planted = Workloads.Gen_x3c.planted (rng_of 5) ~q:4 ~distractors:6 in
  (match X3c.solve planted with
  | Some cover -> check "planted solvable, verified" true (X3c.verify planted cover)
  | None -> Alcotest.fail "planted instance must be solvable");
  let bad = Workloads.Gen_x3c.unsolvable_pair (rng_of 5) ~q:3 ~distractors:4 in
  check "unsolvable instance rejected" true (X3c.solve bad = None);
  check "verify rejects wrong covers" false (X3c.verify planted [ 0; 0; 1 ])

(* ----------------------------------------------------- Theorem 2 bridge *)

let test_theorem2_bridge () =
  (* Solvable iff Steiner fits in the 4q+1 budget, both directions. *)
  List.iter
    (fun seed ->
      let inst = Workloads.Gen_x3c.planted (rng_of seed) ~q:2 ~distractors:2 in
      let red = Reductions.theorem2 inst in
      check "gadget ok" true (Reductions.theorem2_gadget_ok red);
      check "solvable -> within budget" true
        (X3c.solve inst <> None = Reductions.steiner_within_budget red))
    [ 1; 2; 3 ];
  List.iter
    (fun seed ->
      let inst = Workloads.Gen_x3c.unsolvable_pair (rng_of seed) ~q:2 ~distractors:2 in
      let red = Reductions.theorem2 inst in
      check "unsolvable -> over budget" false
        (Reductions.steiner_within_budget red))
    [ 4; 5 ]

(* ------------------------------------------------------- Good orderings *)

let test_good_ordering_on_62 () =
  (* Corollary 5: on (6,2)-chordal graphs every ordering is good. *)
  let g = Datamodel.Figures.fig3b.Datamodel.Figures.graph in
  let u = Bigraph.ugraph g in
  let rng = rng_of 7 in
  for _ = 1 to 10 do
    let order = Workloads.Rng.shuffle rng (Iset.elements (Ugraph.nodes u)) in
    check "every ordering good (fig3b)" true
      (Good_ordering.is_good ~max_terminals:3 u ~order)
  done

let test_find_bad_set () =
  let l = Datamodel.Figures.fig11 in
  let u = Bigraph.ugraph l.Datamodel.Figures.graph in
  let idx n =
    match Datamodel.Figures.index_of_name l n with
    | Some v -> v
    | None -> assert false
  in
  (* An ordering starting with A: find_bad_set must discover a witness
     terminal set on its own. *)
  let order = [ idx "A" ] in
  match Good_ordering.find_bad_set ~max_terminals:4 u ~order with
  | Some p -> check "witness found and confirmed" false (Good_ordering.is_good_for u ~order ~p)
  | None -> Alcotest.fail "Theorem 6 guarantees a bad set"

(* ----------------------------------------------------------- Weighted *)

(* The DP kernel with node weights on [g]'s CSR: the tree and its
   total weight. *)
let weighted g ~weight ~terminals =
  let csr = Csr.of_ugraph g in
  let w = Array.init (Csr.n csr) weight in
  Option.map
    (fun t -> (t, Iset.fold (fun v acc -> acc + w.(v)) t.Tree.nodes 0))
    (Dreyfus_wagner.solve_csr ~weight:w csr ~terminals)

let test_weighted_basics () =
  (* Two routes between 0 and 1: via cheap node 2 or expensive node 3. *)
  let g = Ugraph.of_edges ~n:4 [ (0, 2); (2, 1); (0, 3); (3, 1) ] in
  let weight = function 3 -> 10 | _ -> 1 in
  match weighted g ~weight ~terminals:(Iset.of_list [ 0; 1 ]) with
  | Some (t, cost) ->
    check_int "routes through the cheap node" 3 cost;
    check "avoids node 3" false (Iset.mem 3 t.Tree.nodes);
    check "tree verifies" true
      (Tree.verify g ~terminals:(Iset.of_list [ 0; 1 ]) t)
  | None -> Alcotest.fail "connected"

let test_weighted_heavy_detour () =
  (* Heavier direct middle vs two light hops. *)
  let g = Ugraph.of_edges ~n:5 [ (0, 2); (2, 1); (0, 3); (3, 4); (4, 1) ] in
  let weight = function 2 -> 5 | _ -> 1 in
  match weighted g ~weight ~terminals:(Iset.of_list [ 0; 1 ]) with
  | Some (t, cost) ->
    check_int "takes the two light hops" 4 cost;
    check "uses 3 and 4" true (Iset.mem 3 t.Tree.nodes && Iset.mem 4 t.Tree.nodes)
  | None -> Alcotest.fail "connected"

let test_weighted_negative_rejected () =
  let g = Ugraph.of_edges ~n:2 [ (0, 1) ] in
  let rejects weight =
    try
      ignore (weighted g ~weight ~terminals:(Iset.singleton 0));
      false
    with Invalid_argument _ -> true
  in
  check "negative weight rejected" true (rejects (fun _ -> -1));
  check "total above the cap rejected" true
    (rejects (fun _ -> (Dreyfus_wagner.max_total_weight / 2) + 1));
  check "total at the cap accepted" false
    (rejects (fun v -> if v = 0 then Dreyfus_wagner.max_total_weight else 0));
  (* Costs near the cap are priced exactly: no queue spans the costs. *)
  let path = Ugraph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let third = Dreyfus_wagner.max_total_weight / 3 in
  match weighted path ~weight:(fun _ -> third) ~terminals:(Iset.of_list [ 0; 2 ]) with
  | Some (t, cost) ->
    check_int "path at the cap" (3 * third) cost;
    check_int "all three nodes" 3 (Tree.node_count t)
  | None -> Alcotest.fail "connected"

(* -------------------------------------------------------------- Kbest *)

let test_kbest_fig1_detour () =
  (* The Fig. 1 shape in miniature: terminals adjacent directly AND via
     a middle node; k-best must surface both navigations in order. *)
  let g = Ugraph.of_edges ~n:3 [ (0, 1); (0, 2); (2, 1) ] in
  let trees = Kbest.enumerate ~max_trees:5 g ~terminals:(Iset.of_list [ 0; 1 ]) in
  check_int "two connections" 2 (List.length trees);
  (match trees with
  | [ a; b ] ->
    check_int "direct edge first" 2 (Tree.node_count a);
    check_int "detour second" 3 (Tree.node_count b);
    check "detour goes through 2" true (Iset.mem 2 (List.nth trees 1).Tree.nodes)
  | _ -> Alcotest.fail "expected exactly two");
  check "sizes nondecreasing" true
    (let sizes = List.map Tree.node_count trees in
     List.sort compare sizes = sizes)

let test_kbest_properties () =
  let rng = rng_of 77 in
  for _ = 1 to 15 do
    let g =
      Bigraph.ugraph (Workloads.Gen_bipartite.gnp rng ~nl:5 ~nr:5 ~p:0.4)
    in
    let terminals =
      Iset.of_list (Workloads.Rng.sample rng 3 (Iset.elements (Ugraph.nodes g)))
    in
    let trees = Kbest.enumerate ~max_trees:6 g ~terminals in
    (match (trees, Dreyfus_wagner.optimum_nodes g ~terminals) with
    | [], None -> ()
    | first :: _, Some opt ->
      check_int "first solution is the optimum" opt (Tree.node_count first)
    | [], Some _ -> Alcotest.fail "missed a solution"
    | _ :: _, None -> Alcotest.fail "solution on disconnected terminals");
    List.iter
      (fun t -> check "every tree verifies" true (Tree.verify g ~terminals t))
      trees;
    let keys =
      List.map (fun t -> List.sort compare t.Tree.edges) trees
    in
    check "edge sets pairwise distinct" true
      (List.length (List.sort_uniq compare keys) = List.length keys);
    let sizes = List.map Tree.node_count trees in
    check "sizes nondecreasing" true (List.sort compare sizes = sizes)
  done

let test_kbest_max_extra () =
  let g = Ugraph.of_edges ~n:4 [ (0, 1); (0, 2); (2, 1); (0, 3); (3, 1) ] in
  let trees =
    Kbest.enumerate ~max_trees:10 ~max_extra:0 g
      ~terminals:(Iset.of_list [ 0; 1 ])
  in
  check "only optimum-size trees" true
    (List.for_all (fun t -> Tree.node_count t = 2) trees)

let test_spanning_with_leaves_in () =
  let g = Ugraph.of_edges ~n:3 [ (0, 1); (0, 2); (2, 1) ] in
  (match
     Tree.spanning_with_leaves_in g ~nodes:(Iset.of_list [ 0; 1; 2 ])
       ~terminals:(Iset.of_list [ 0; 1 ])
   with
  | Some t ->
    check "2 is internal" true
      (List.length (List.filter (fun (a, b) -> a = 2 || b = 2) t.Tree.edges) = 2)
  | None -> Alcotest.fail "a through-2 tree exists");
  let path = Ugraph.of_edges ~n:3 [ (0, 2); (2, 1) ] in
  check "no tree when middle must dangle" true
    (Tree.spanning_with_leaves_in path ~nodes:(Iset.of_list [ 0; 1; 2 ])
       ~terminals:(Iset.of_list [ 0; 2 ])
    = None)

(* ---------------------------------------------------------- Edge cases *)

let test_edge_cases () =
  let g = Ugraph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  (* Empty terminal set: every solver returns a trivial answer. *)
  (match Dreyfus_wagner.solve g ~terminals:Iset.empty with
  | Some t -> check_int "DW empty" 0 (Tree.node_count t)
  | None -> Alcotest.fail "DW empty");
  (match Mst_approx.solve g ~terminals:Iset.empty with
  | Some t -> check_int "MST empty" 0 (Tree.node_count t)
  | None -> Alcotest.fail "MST empty");
  (* Whole graph as terminals: spanning tree. *)
  (match Dreyfus_wagner.solve g ~terminals:(Iset.range 4) with
  | Some t -> check_int "all-terminal = spanning tree" 4 (Tree.node_count t)
  | None -> Alcotest.fail "all-terminal");
  (* Kbest with max_trees 1 returns exactly the optimum. *)
  (match Kbest.enumerate ~max_trees:1 g ~terminals:(Iset.of_list [ 0; 3 ]) with
  | [ t ] -> check_int "kbest 1" 4 (Tree.node_count t)
  | _ -> Alcotest.fail "kbest 1");
  check "kbest on disconnected terminals is empty" true
    (Kbest.enumerate (Ugraph.create 2) ~terminals:(Iset.of_list [ 0; 1 ]) = []);
  (* Algorithm 2 with p = all nodes keeps everything. *)
  match Algorithm2.solve g ~p:(Iset.range 4) with
  | Some t -> check_int "alg2 all-terminals" 4 (Tree.node_count t)
  | None -> Alcotest.fail "alg2 all-terminals"

let test_weighted_zero_costs () =
  (* Zero-weight auxiliaries are free: the solver may take long detours
     without penalty, but cost must equal terminal weights only. *)
  let g = Ugraph.of_edges ~n:4 [ (0, 2); (2, 3); (3, 1) ] in
  let weight = function 0 | 1 -> 3 | _ -> 0 in
  match weighted g ~weight ~terminals:(Iset.of_list [ 0; 1 ]) with
  | Some (_, cost) -> check_int "only terminals cost" 6 cost
  | None -> Alcotest.fail "connected"

(* ------------------------------------------------------- properties *)

let qcheck_cases' = [ forest_qcheck ]

(* Regressions for the former assert-false panics: degenerate terminal
   sets must degrade to trivial trees or [None], never crash. *)
let test_degenerate_terminals () =
  let g = Ugraph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (1, 4) ] in
  (* Node 5 is isolated. *)
  (match Mst_approx.solve g ~terminals:Iset.empty with
  | Some t -> Alcotest.(check int) "empty set: empty tree" 0 (Tree.node_count t)
  | None -> Alcotest.fail "empty terminal set is trivially solvable");
  (match Mst_approx.solve g ~terminals:(Iset.singleton 5) with
  | Some t -> Alcotest.(check int) "single isolated terminal" 1 (Tree.node_count t)
  | None -> Alcotest.fail "single terminal is trivially solvable");
  (match Mst_approx.solve g ~terminals:(Iset.of_list [ 0; 5 ]) with
  | None -> ()
  | Some _ -> Alcotest.fail "isolated terminal is disconnected");
  (match Dreyfus_wagner.solve g ~terminals:(Iset.singleton 5) with
  | Some t -> Alcotest.(check int) "DW single terminal" 1 (Tree.node_count t)
  | None -> Alcotest.fail "single terminal is trivially solvable");
  (match Dreyfus_wagner.solve g ~terminals:(Iset.of_list [ 0; 5 ]) with
  | None -> ()
  | Some _ -> Alcotest.fail "DW isolated terminal is disconnected");
  (* Isolated terminal inside a restricted universe. *)
  match
    Dreyfus_wagner.solve ~within:(Iset.of_list [ 0; 1; 5 ]) g
      ~terminals:(Iset.of_list [ 0; 5 ])
  with
  | None -> ()
  | Some _ -> Alcotest.fail "DW within: disconnected"

(* ------------------------------------------- CSR rungs vs set oracles *)

(* The DP, forest and MST rungs run on a CSR; [Reference_steiner] keeps
   the set-view bodies they replaced. Instances come from four families
   — gnp, (6,2)-chordal, α-acyclic bipartite and trees — with a random
   suffix of the edges sometimes dropped (disconnected terminals,
   isolated nodes), 0–5 terminals, and a [within] that is absent, every
   node, a superset of the terminals, or an arbitrary subset (terminals
   outside it). *)
type oracle_instance = {
  g : Ugraph.t;
  terminals : Iset.t;
  within : Iset.t option;
}

let oracle_instance_gen =
  QCheck2.Gen.(
    tup4 (int_range 0 3) (int_range 0 100_000) (int_range 0 5) (int_range 0 3)
    |> map (fun (family, seed, k, within_mode) ->
           let rng = rng_of seed in
           let module R = Workloads.Rng in
           let g =
             match family with
             | 0 -> Workloads.Gen_graph.gnp rng ~n:(4 + R.int rng 11) ~p:0.4
             | 1 ->
               Bigraph.ugraph
                 (Workloads.Gen_bipartite.chordal_62 rng ~n_right:5 ~max_size:3)
             | 2 ->
               Bigraph.ugraph
                 (Workloads.Gen_bipartite.alpha_bipartite rng ~n_right:5
                    ~max_size:3)
             | _ -> Workloads.Gen_graph.random_tree rng ~n:(2 + R.int rng 10)
           in
           let g =
             if R.bool rng 0.3 then
               let edges = Ugraph.edges g in
               let keep = R.int rng (List.length edges + 1) in
               Ugraph.of_edges ~n:(Ugraph.n g)
                 (List.filteri (fun i _ -> i < keep) edges)
             else g
           in
           let nodes = Iset.elements (Ugraph.nodes g) in
           let terminals = Iset.of_list (R.sample rng k nodes) in
           let subset () = Iset.of_list (List.filter (fun _ -> R.bool rng 0.7) nodes) in
           let within =
             match within_mode with
             | 0 -> None
             | 1 -> Some (Ugraph.nodes g)
             | 2 -> Some (Iset.union terminals (subset ()))
             | _ -> Some (subset ())
           in
           { g; terminals; within }))

let print_oracle_instance i =
  Format.asprintf "edges=%s terminals=%a within=%s"
    (String.concat " "
       (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) (Ugraph.edges i.g)))
    Iset.pp i.terminals
    (match i.within with
    | None -> "-"
    | Some w -> Format.asprintf "%a" Iset.pp w)

let same_tree a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y ->
    Iset.equal x.Tree.nodes y.Tree.nodes && x.Tree.edges = y.Tree.edges
  | _ -> false

(* Run [f] on a fresh metered budget: its outcome (exhaustion included)
   and the fuel it spent. *)
let metered ?fuel f =
  let budget = Runtime.Budget.make ?fuel () in
  let outcome =
    match f budget with
    | r -> Ok r
    | exception Runtime.Budget.Exhausted _ -> Error ()
  in
  (outcome, Runtime.Budget.spent budget)

let same_outcome (a, fa) (b, fb) =
  fa = fb
  &&
  match (a, b) with
  | Ok x, Ok y -> same_tree x y
  | Error (), Error () -> true
  | _ -> false

let oracle_cases =
  [
    QCheck2.Test.make ~count:1500
      ~name:"DW on the CSR = set-view DW: same tree, same fuel"
      ~print:print_oracle_instance oracle_instance_gen
      (fun { g; terminals; within } ->
        let reference ?fuel () =
          metered ?fuel (fun budget ->
              Reference_steiner.dreyfus_wagner ?within ~budget g ~terminals)
        in
        let ((_, spent) as expected) = reference () in
        let wrapper =
          metered (fun budget -> Dreyfus_wagner.solve ?within ~budget g ~terminals)
        in
        (* The kernel itself, on the whole graph's CSR. *)
        let kernel =
          match within with
          | Some _ -> true
          | None ->
            same_outcome expected
              (metered (fun budget ->
                   Dreyfus_wagner.solve_csr ~budget (Csr.of_ugraph g) ~terminals))
        in
        (* Cut off halfway, both stop at the same check. *)
        let starved =
          spent < 2
          ||
          let fuel = spent / 2 in
          same_outcome (reference ~fuel ())
            (metered ~fuel (fun budget ->
                 Dreyfus_wagner.solve ?within ~budget g ~terminals))
        in
        same_outcome expected wrapper && kernel && starved);
    QCheck2.Test.make ~count:300
      ~name:"forest rung on the CSR = set-view pruning"
      ~print:print_oracle_instance oracle_instance_gen
      (fun { g; terminals; _ } ->
        (* The leaf-pruning reference answers on forests; off them the
           seed must still be a cover. *)
        match
          (Reference_steiner.forest_steiner g ~terminals, seed_tree g ~terminals)
        with
        | (Some _ as r), s -> same_tree r s
        | None, None -> true
        | None, Some s -> Tree.verify g ~terminals s);
    QCheck2.Test.make ~count:300
      ~name:"MST rung on the CSR = set-view MST expansion"
      ~print:print_oracle_instance oracle_instance_gen
      (fun { g; terminals; _ } ->
        same_tree
          (Reference_steiner.mst_approx g ~terminals)
          (Mst_approx.solve g ~terminals));
    (* Weights scaled by 2^20 total more than n + 2m, so the kernel
       queues on its radix heap instead of Dial's buckets; scaling keeps
       every comparison, so the trees and the fuel must not move. *)
    QCheck2.Test.make ~count:500
      ~name:"DW radix heap = Dial buckets: scaled weights, same tree, same fuel"
      ~print:print_oracle_instance oracle_instance_gen
      (fun { g; terminals; _ } ->
        let csr = Csr.of_ugraph g and n = Ugraph.n g in
        let rng = rng_of (n + Iset.fold ( + ) terminals 0) in
        let small = Array.init n (fun _ -> Workloads.Rng.int rng 8) in
        let run weight =
          metered (fun budget -> Dreyfus_wagner.solve_csr ~weight ~budget csr ~terminals)
        in
        let scaled w = Array.map (fun x -> x lsl 20) w in
        let unit = Array.make n 1 in
        same_outcome (run unit) (run (scaled unit))
        && same_outcome (run small) (run (scaled small)));
  ]

let qcheck_cases =
  qcheck_cases'
  @
  let small_graph_gen =
    QCheck2.Gen.(
      tup2 (int_range 4 9) (int_range 0 100000)
      |> map (fun (n, seed) ->
             let rng = rng_of seed in
             Workloads.Gen_graph.random_connected rng ~n ~extra_edges:3))
  in
  let terminals_gen g rng_seed k =
    let rng = rng_of rng_seed in
    Iset.of_list (Workloads.Rng.sample rng k (Iset.elements (Ugraph.nodes g)))
  in
  [
    QCheck2.Test.make ~count:120
      ~name:"weighted solver with unit weights = unweighted node count"
      QCheck2.Gen.(tup2 small_graph_gen (int_range 0 1000))
      (fun (g, s) ->
        let terminals = terminals_gen g s 3 in
        let unit = weighted g ~weight:(fun _ -> 1) ~terminals in
        match (unit, Dreyfus_wagner.solve g ~terminals) with
        | Some (t, cost), Some t' ->
          cost = Tree.node_count t' && Iset.equal t.Tree.nodes t'.Tree.nodes
          && t.Tree.edges = t'.Tree.edges
        | None, None -> true
        | _ -> false);
    QCheck2.Test.make ~count:120
      ~name:"weighted solver = weighted brute oracle"
      QCheck2.Gen.(tup3 small_graph_gen (int_range 0 1000) (int_range 0 100000))
      (fun (g, s, wseed) ->
        let terminals = terminals_gen g s 3 in
        (* Weights 0..7: zero-cost auxiliaries make equal-cost plateaus. *)
        let rng = rng_of wseed in
        let costs = Array.init (Ugraph.n g) (fun _ -> Workloads.Rng.int rng 8) in
        let weight v = costs.(v) in
        match
          ( weighted g ~weight ~terminals,
            Reference_steiner.weighted_brute g ~weight ~terminals )
        with
        | Some (t, cost), Some best ->
          cost = best && Tree.verify g ~terminals t
        | None, None -> true
        | _ -> false);
    QCheck2.Test.make ~count:150 ~name:"DW optimum = brute optimum"
      QCheck2.Gen.(tup2 small_graph_gen (int_range 0 1000))
      (fun (g, s) ->
        let terminals = terminals_gen g s 3 in
        let dw = Dreyfus_wagner.optimum_nodes g ~terminals in
        let brute = Option.map Tree.node_count (Brute.steiner g ~terminals) in
        dw = brute);
    QCheck2.Test.make ~count:150 ~name:"DW tree verifies"
      QCheck2.Gen.(tup2 small_graph_gen (int_range 0 1000))
      (fun (g, s) ->
        let terminals = terminals_gen g s 4 in
        match Dreyfus_wagner.solve g ~terminals with
        | None -> true
        | Some t -> Tree.verify g ~terminals t);
    QCheck2.Test.make ~count:120
      ~name:"Theorem 5: Algorithm 2 = exact optimum on (6,2)-chordal"
      QCheck2.Gen.(tup2 (int_range 0 4000) (int_range 2 4))
      (fun (seed, k) ->
        let rng = rng_of seed in
        let g = Workloads.Gen_bipartite.chordal_62 rng ~n_right:6 ~max_size:3 in
        let u = Bigraph.ugraph g in
        let p = Workloads.Gen_bipartite.random_terminals rng g ~k in
        QCheck2.assume (Iset.cardinal p >= 2);
        match (Algorithm2.solve u ~p, Dreyfus_wagner.optimum_nodes u ~terminals:p) with
        | Some t, Some opt -> Tree.node_count t = opt
        | None, None -> true
        | _ -> false);
    QCheck2.Test.make ~count:100
      ~name:"Corollary 5: random orderings all exact on (6,2)-chordal"
      QCheck2.Gen.(tup2 (int_range 0 3000) (int_range 0 1000))
      (fun (seed, oseed) ->
        let rng = rng_of seed in
        let g = Workloads.Gen_bipartite.chordal_62 rng ~n_right:5 ~max_size:3 in
        let u = Bigraph.ugraph g in
        let p = Workloads.Gen_bipartite.random_terminals rng g ~k:3 in
        QCheck2.assume (Iset.cardinal p >= 2);
        let order =
          Workloads.Rng.shuffle (rng_of oseed) (Iset.elements (Ugraph.nodes u))
        in
        match
          ( Traverse.component_containing u p,
            Dreyfus_wagner.optimum_nodes u ~terminals:p )
        with
        | Some within, Some opt ->
          Iset.cardinal (Cover.eliminate_redundant ~order u ~within ~p) = opt
        | None, None -> true
        | _ -> false);
    QCheck2.Test.make ~count:120
      ~name:"Theorem 4: Algorithm 1 V2-count = brute V2 minimum"
      QCheck2.Gen.(tup2 (int_range 0 4000) (int_range 2 4))
      (fun (seed, k) ->
        let rng = rng_of seed in
        let g = Workloads.Gen_bipartite.alpha_bipartite rng ~n_right:5 ~max_size:3 in
        let p = Workloads.Gen_bipartite.random_terminals rng g ~k in
        QCheck2.assume (Iset.cardinal p >= 2);
        match (Algorithm1.solve g ~p, Brute.v2_minimum g ~p) with
        | Ok r, Some (_, best) ->
          r.Algorithm1.v2_count = best
          && Tree.verify (Bigraph.ugraph g) ~terminals:p r.Algorithm1.tree
        | Error Algorithm1.Disconnected_terminals, _ -> true
        | _ -> false);
    QCheck2.Test.make ~count:120
      ~name:"Lemma 4/5: on (6,2)-chordal, nonredundant covers are minimum"
      QCheck2.Gen.(int_range 0 3000)
      (fun seed ->
        let rng = rng_of seed in
        let g = Workloads.Gen_bipartite.chordal_62 rng ~n_right:4 ~max_size:3 in
        let u = Bigraph.ugraph g in
        QCheck2.assume (Ugraph.n u <= 11);
        let p = Workloads.Gen_bipartite.random_terminals rng g ~k:2 in
        QCheck2.assume (Iset.cardinal p = 2);
        match Graphs.Traverse.component_containing u p with
        | None -> true
        | Some comp ->
          let covers = Cover.nonredundant_covers_brute u ~within:comp ~p in
          let sizes = List.map Iset.cardinal covers in
          (match sizes with
          | [] -> true
          | s :: rest -> List.for_all (fun x -> x = s) rest));
    QCheck2.Test.make ~count:100
      ~name:"MST approximation within factor 2 and valid"
      QCheck2.Gen.(tup2 small_graph_gen (int_range 0 1000))
      (fun (g, s) ->
        let terminals = terminals_gen g s 3 in
        match
          (Mst_approx.solve g ~terminals, Dreyfus_wagner.optimum_nodes g ~terminals)
        with
        | Some t, Some opt ->
          Tree.verify g ~terminals t
          && Tree.node_count t - 1 <= max 1 (2 * (opt - 1))
        | None, None -> true
        | _ -> false);
    QCheck2.Test.make ~count:40
      ~name:"Fig 9 reduction: CSPC = pseudo-Steiner V2 on random chordal"
      QCheck2.Gen.(int_range 0 2000)
      (fun seed ->
        let rng = rng_of seed in
        let g = Workloads.Gen_graph.random_chordal rng ~n:6 ~max_clique:3 in
        let terminals =
          Iset.of_list (Workloads.Rng.sample rng 2 (Iset.elements (Ugraph.nodes g)))
        in
        QCheck2.assume (Graphs.Traverse.connects g terminals);
        Reductions.fig9_equivalence_holds g ~terminals);
    QCheck2.Test.make ~count:60
      ~name:"Theorem 2 both directions on random q=2 instances"
      QCheck2.Gen.(int_range 0 500)
      (fun seed ->
        let rng = rng_of seed in
        let solvable = Workloads.Rng.bool rng 0.5 in
        let inst =
          if solvable then Workloads.Gen_x3c.planted rng ~q:2 ~distractors:2
          else Workloads.Gen_x3c.unsolvable_pair rng ~q:2 ~distractors:3
        in
        let red = Reductions.theorem2 inst in
        X3c.solve inst <> None = Reductions.steiner_within_budget red);
    QCheck2.Test.make ~count:300
      ~name:"solvers never raise on arbitrary terminal sets"
      QCheck2.Gen.(tup3 (int_range 2 10) (int_range 0 100000) (int_range 0 4))
      (fun (n, seed, k) ->
        (* Possibly-disconnected graph with isolated nodes: drop a
           random prefix of edges from a random connected graph. *)
        let rng = rng_of seed in
        let full = Workloads.Gen_graph.random_connected rng ~n ~extra_edges:1 in
        let keep = Workloads.Rng.int rng (List.length (Ugraph.edges full) + 1) in
        let g =
          Ugraph.of_edges ~n (List.filteri (fun i _ -> i < keep) (Ugraph.edges full))
        in
        let terminals =
          Iset.of_list (Workloads.Rng.sample rng k (Iset.elements (Ugraph.nodes g)))
        in
        let no_raise f =
          match f () with _ -> true | exception _ -> false
        in
        no_raise (fun () -> Mst_approx.solve g ~terminals)
        && no_raise (fun () -> Dreyfus_wagner.solve g ~terminals)
        && no_raise (fun () -> Algorithm2.solve g ~p:terminals));
  ]

let () =
  Alcotest.run "steiner"
    [
      ( "cover",
        [
          Alcotest.test_case "predicates" `Quick test_cover_predicates;
          Alcotest.test_case "eliminate redundant" `Quick test_eliminate_redundant;
          Alcotest.test_case "paths" `Quick test_paths;
        ] );
      ( "dreyfus-wagner",
        [
          Alcotest.test_case "basics" `Quick test_dw_basics;
          Alcotest.test_case "within" `Quick test_dw_within;
        ] );
      ( "algorithm2",
        [
          Alcotest.test_case "exact on (6,2)" `Quick test_alg2_on_62;
          Alcotest.test_case "custom order" `Quick test_alg2_custom_order;
        ] );
      ( "algorithm1",
        [
          Alcotest.test_case "fig2" `Quick test_alg1_fig2;
          Alcotest.test_case "rejects cyclic" `Quick test_alg1_rejects_cyclic;
          Alcotest.test_case "disconnected" `Quick test_alg1_disconnected;
          Alcotest.test_case "wrt V1" `Quick test_alg1_wrt_v1;
        ] );
      ( "mst-approx",
        [
          Alcotest.test_case "bounds" `Quick test_mst_approx;
          Alcotest.test_case "degenerate terminals" `Quick
            test_degenerate_terminals;
        ] );
      ("x3c", [ Alcotest.test_case "solver" `Quick test_x3c_solver ]);
      ( "forest",
        [ Alcotest.test_case "unique connection" `Quick test_forest_solver ] );
      ( "edge-cases",
        [
          Alcotest.test_case "solvers" `Quick test_edge_cases;
          Alcotest.test_case "weighted zero costs" `Quick
            test_weighted_zero_costs;
        ] );
      ( "local-search",
        [ Alcotest.test_case "bounds and validity" `Quick test_local_search ] );
      ( "reductions",
        [ Alcotest.test_case "theorem 2 bridge" `Quick test_theorem2_bridge ] );
      ( "weighted",
        [
          Alcotest.test_case "basics" `Quick test_weighted_basics;
          Alcotest.test_case "heavy detour" `Quick test_weighted_heavy_detour;
          Alcotest.test_case "negative rejected" `Quick
            test_weighted_negative_rejected;
        ] );
      ( "kbest",
        [
          Alcotest.test_case "fig1 detour" `Quick test_kbest_fig1_detour;
          Alcotest.test_case "properties" `Quick test_kbest_properties;
          Alcotest.test_case "max_extra" `Quick test_kbest_max_extra;
          Alcotest.test_case "spanning with terminal leaves" `Quick
            test_spanning_with_leaves_in;
        ] );
      ( "good-orderings",
        [
          Alcotest.test_case "corollary 5 on fig3b" `Quick test_good_ordering_on_62;
          Alcotest.test_case "find bad set on fig11" `Quick test_find_bad_set;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
      ("csr-oracles", List.map QCheck_alcotest.to_alcotest oracle_cases);
    ]
