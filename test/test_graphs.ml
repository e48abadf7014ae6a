(* Unit and property tests for the graph substrate. *)

open Graphs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let petersen =
  (* Outer 5-cycle, inner pentagram, spokes. Girth 5, not chordal. *)
  Ugraph.of_edges ~n:10
    [
      (0, 1); (1, 2); (2, 3); (3, 4); (4, 0);
      (5, 7); (7, 9); (9, 6); (6, 8); (8, 5);
      (0, 5); (1, 6); (2, 7); (3, 8); (4, 9);
    ]

let path n = Ugraph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))

(* ------------------------------------------------------------ Ugraph *)

let test_basics () =
  let g = Ugraph.of_edges ~n:4 [ (0, 1); (1, 2) ] in
  check_int "n" 4 (Ugraph.n g);
  check_int "m" 2 (Ugraph.m g);
  check "mem" true (Ugraph.mem_edge g 0 1);
  check "mem sym" true (Ugraph.mem_edge g 1 0);
  check "not mem" false (Ugraph.mem_edge g 0 2);
  let g = Ugraph.add_edge g 0 1 in
  check_int "idempotent add" 2 (Ugraph.m g);
  let g = Ugraph.remove_edge g 0 1 in
  check_int "remove" 1 (Ugraph.m g);
  check_int "degree after removal" 1 (Ugraph.degree g 1)

let test_rejects () =
  check "self-loop rejected" true
    (try
       ignore (Ugraph.of_edges ~n:3 [ (1, 1) ]);
       false
     with Invalid_argument _ -> true);
  check "out of range rejected" true
    (try
       ignore (Ugraph.of_edges ~n:3 [ (0, 3) ]);
       false
     with Invalid_argument _ -> true)

let test_private_neighbors () =
  (* Star: center 0, leaves 1..3; plus 3-4. *)
  let g = Ugraph.of_edges ~n:5 [ (0, 1); (0, 2); (0, 3); (3, 4) ] in
  let w = Iset.range 5 in
  let adj_star = Ugraph.private_neighbors g ~within:w 0 in
  check "1 and 2 are private to 0" true
    (Iset.mem 1 adj_star && Iset.mem 2 adj_star);
  check "3 is not private to 0 (sees 4)" false (Iset.mem 3 adj_star)

let test_induced () =
  let sub, ids = Ugraph.induced petersen (Iset.of_list [ 0; 1; 2; 5 ]) in
  check_int "induced nodes" 4 (Ugraph.n sub);
  check_int "induced edges (0-1, 1-2, 0-5)" 3 (Ugraph.m sub);
  check "id map is increasing" true (ids = [| 0; 1; 2; 5 |])

let test_complement () =
  let g = path 4 in
  let c = Ugraph.complement g in
  check_int "complement edge count" ((4 * 3 / 2) - 3) (Ugraph.m c);
  check "complement disjoint" true
    (Ugraph.fold_edges (fun u v acc -> acc && not (Ugraph.mem_edge g u v)) c true)

(* ---------------------------------------------------------- Traverse *)

let test_bfs_distances () =
  let d = Traverse.bfs (path 5) 0 in
  check "distances along the path" true (d = [| 0; 1; 2; 3; 4 |])

let test_within_respected () =
  let g = path 5 in
  let within = Iset.of_list [ 0; 1; 3; 4 ] in
  check "cut vertex removal disconnects" false
    (Traverse.is_connected ~within g);
  check "components count" true
    (List.length (Traverse.components ~within g) = 2);
  check "connects fails across the cut" false
    (Traverse.connects ~within g (Iset.of_list [ 0; 4 ]))

let test_component_containing () =
  let g = Ugraph.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4) ] in
  (match Traverse.component_containing g (Iset.of_list [ 0; 2 ]) with
  | Some c ->
    check "component of {0,2}" true (Iset.equal c (Iset.of_list [ 0; 1; 2 ]))
  | None -> Alcotest.fail "expected a component");
  check "straddling terminals have no component" true
    (Traverse.component_containing g (Iset.of_list [ 0; 3 ]) = None)

let test_shortest_path () =
  match Traverse.shortest_path petersen 0 9 with
  | Some p ->
    check_int "path length 0..9" 3 (List.length p);
    check "endpoints" true
      (List.hd p = 0 && List.nth p (List.length p - 1) = 9)
  | None -> Alcotest.fail "petersen is connected"

(* ---------------------------------------------------------- Spanning *)

let test_spanning_tree () =
  (match Spanning.spanning_tree petersen with
  | Some es ->
    check_int "spanning tree edges" 9 (List.length es);
    check "verifies" true
      (Spanning.tree_check petersen ~over:(Ugraph.nodes petersen) es)
  | None -> Alcotest.fail "petersen is connected");
  check "disconnected graph has no spanning tree" true
    (Spanning.spanning_tree (Ugraph.create 3) = None);
  check "is_tree on a path" true (Spanning.is_tree (path 4));
  check "is_tree rejects a cycle" false
    (Spanning.is_tree (Workloads.Gen_graph.cycle 4))

let test_tree_check_rejects () =
  let g = path 4 in
  check "wrong node set rejected" false
    (Spanning.tree_check g ~over:(Iset.of_list [ 0; 1; 2; 3 ]) [ (0, 1); (1, 2) ]);
  check "non-edges rejected" false
    (Spanning.tree_check g ~over:(Iset.of_list [ 0; 2 ]) [ (0, 2) ])

(* ------------------------------------------------------------ Cycles *)

let test_acyclicity () =
  check "path acyclic" true (Cycles.is_acyclic (path 6));
  check "petersen cyclic" false (Cycles.is_acyclic petersen);
  check "find_cycle on tree" true (Cycles.find_cycle (path 6) = None);
  match Cycles.find_cycle petersen with
  | Some c -> check "cycle length >= girth" true (List.length c >= 5)
  | None -> Alcotest.fail "petersen has cycles"

let test_cycle_enumeration () =
  let c4 = Workloads.Gen_graph.cycle 4 in
  check_int "C4 has one cycle" 1 (List.length (Cycles.simple_cycles c4));
  let k4 =
    Ugraph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]
  in
  (* K4: 4 triangles + 3 four-cycles. *)
  check_int "K4 cycle count" 7 (List.length (Cycles.simple_cycles k4));
  check_int "K4 triangles" 4 (List.length (Cycles.simple_cycles ~max_len:3 k4));
  check_int "petersen girth" 5
    (match Cycles.girth petersen with Some g -> g | None -> -1)

let test_chords () =
  let c5_with_chord = Ugraph.add_edge (Workloads.Gen_graph.cycle 5) 0 2 in
  let cyc = [ 0; 1; 2; 3; 4 ] in
  check "chord found" true (Cycles.chords c5_with_chord cyc = [ (0, 2) ]);
  check "chordless cycle detector" true
    (Cycles.exists_cycle_with_few_chords (Workloads.Gen_graph.cycle 6)
       ~min_len:6 ~max_chords:0);
  check "fully chorded is fine" false
    (Cycles.exists_cycle_with_few_chords c5_with_chord ~min_len:5 ~max_chords:0)

(* ----------------------------------------------------------- Cliques *)

let test_cliques () =
  let k4_plus =
    Ugraph.of_edges ~n:5
      [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3); (3, 4) ]
  in
  let cliques = Cliques.maximal_cliques k4_plus in
  check_int "two maximal cliques" 2 (List.length cliques);
  check_int "max clique size" 4 (Cliques.max_clique_size k4_plus);
  check "K4 is one of them" true
    (List.exists (fun c -> Iset.equal c (Iset.of_list [ 0; 1; 2; 3 ])) cliques)

(* ---------------------------------------------------- LexBFS/Chordal *)

let test_chordal_basic () =
  check "tree is chordal" true (Chordal.is_chordal (path 6));
  check "C4 is not chordal" false
    (Chordal.is_chordal (Workloads.Gen_graph.cycle 4));
  check "C6 is not chordal" false
    (Chordal.is_chordal (Workloads.Gen_graph.cycle 6));
  check "petersen not chordal" false (Chordal.is_chordal petersen);
  let k4 =
    Ugraph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]
  in
  check "K4 chordal" true (Chordal.is_chordal k4)

let test_peo_validity () =
  let g =
    Workloads.Gen_graph.random_chordal
      (Workloads.Rng.make ~seed:1)
      ~n:20 ~max_clique:4
  in
  match Chordal.perfect_elimination_order g with
  | Some order ->
    check "returned PEO verifies" true
      (Chordal.is_perfect_elimination_order g order)
  | None -> Alcotest.fail "random_chordal must be chordal"

let test_simplicial () =
  let k3_tail = Ugraph.of_edges ~n:4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  let s = Chordal.simplicial_nodes k3_tail in
  check "0,1,3 simplicial; 2 not" true
    (Iset.equal s (Iset.of_list [ 0; 1; 3 ]))

(* -------------------------------------------------- Strongly chordal *)

let test_strongly_chordal_basics () =
  check "path strongly chordal" true (Strongly_chordal.is_strongly_chordal (path 6));
  let k4 =
    Ugraph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]
  in
  check "complete graph strongly chordal" true
    (Strongly_chordal.is_strongly_chordal k4);
  check "C6 is not (not even chordal)" false
    (Strongly_chordal.is_strongly_chordal (Workloads.Gen_graph.cycle 6))

let test_sun () =
  let s3 = Strongly_chordal.sun 3 in
  check "3-sun is chordal" true (Chordal.is_chordal s3);
  check "3-sun is not strongly chordal" false
    (Strongly_chordal.is_strongly_chordal s3);
  check "3-sun brute agrees" false (Strongly_chordal.is_strongly_chordal_brute s3);
  let s4 = Strongly_chordal.sun 4 in
  check "4-sun is not strongly chordal" false
    (Strongly_chordal.is_strongly_chordal s4);
  check "4-sun not chordal (C4 on rim alternations has no chord)" true
    (Chordal.is_chordal s4 = Chordal.is_chordal_brute s4)

let test_simple_vertices () =
  let g = path 4 in
  let within = Ugraph.nodes g in
  check "path endpoint is simple" true
    (Strongly_chordal.is_simple_vertex g ~within 0);
  let s3 = Strongly_chordal.sun 3 in
  check "sun rim vertex is not simple" false
    (Strongly_chordal.is_simple_vertex s3 ~within:(Ugraph.nodes s3) 0)

(* ------------------------------------------------------------- DOT *)

let test_dot () =
  let s = Dot.of_ugraph ~name:"t" (path 3) in
  check "mentions edges" true
    (String.length s > 0
    && String.split_on_char '\n' s
       |> List.exists (fun l -> l = "  n0 -- n1;"))

(* -------------------------------------------------------- properties *)

let qcheck_cases =
  let gen_graph =
    QCheck2.Gen.(
      pair (int_range 1 10) (int_range 0 100)
      |> map (fun (n, seed) ->
             let rng = Workloads.Rng.make ~seed in
             Workloads.Gen_graph.gnp rng ~n ~p:0.35))
  in
  [
    QCheck2.Test.make ~count:150 ~name:"MCS order is a permutation" gen_graph
      (fun g ->
        let order = Chordal.mcs_order g in
        List.sort_uniq compare order = Iset.elements (Ugraph.nodes g));
    (* The set-based LexBFS pipeline is the oracle the kernel is
       checked against; check the oracle too. *)
    QCheck2.Test.make ~count:120
      ~name:"LexBFS chordality test agrees with brute force" gen_graph
      (fun g -> Reference_sets.is_chordal_sets g = Chordal.is_chordal_brute g);
    QCheck2.Test.make ~count:120 ~name:"random_chordal really is chordal"
      QCheck2.Gen.(int_range 0 1000)
      (fun seed ->
        let rng = Workloads.Rng.make ~seed in
        let g = Workloads.Gen_graph.random_chordal rng ~n:14 ~max_clique:4 in
        Chordal.is_chordal g && Chordal.is_chordal_brute g);
    QCheck2.Test.make ~count:150 ~name:"spanning forest spans components"
      gen_graph (fun g ->
        let comps = Traverse.components g in
        let edges = Spanning.spanning_forest g in
        List.length edges = Ugraph.n g - List.length comps);
    QCheck2.Test.make ~count:100
      ~name:"girth matches shortest enumerated cycle" gen_graph (fun g ->
        match Cycles.girth g with
        | None -> Cycles.simple_cycles g = []
        | Some k ->
          let lens = List.map List.length (Cycles.simple_cycles g) in
          List.fold_left min max_int lens = k);
    QCheck2.Test.make ~count:100 ~name:"BFS distance = shortest path length"
      gen_graph (fun g ->
        let n = Ugraph.n g in
        let s = 0 in
        let d = Traverse.bfs g s in
        List.for_all
          (fun t ->
            match Traverse.shortest_path g s t with
            | None -> d.(t) = -1
            | Some p -> d.(t) = List.length p - 1)
          (List.init n (fun i -> i)));
    QCheck2.Test.make ~count:150
      ~name:"strongly chordal: elimination = definitional oracle" gen_graph
      (fun g ->
        Strongly_chordal.is_strongly_chordal g
        = Strongly_chordal.is_strongly_chordal_brute g);
    QCheck2.Test.make ~count:150
      ~name:"strongly chordal => chordal" gen_graph (fun g ->
        QCheck2.assume (Strongly_chordal.is_strongly_chordal g);
        Chordal.is_chordal g);
    QCheck2.Test.make ~count:100
      ~name:"maximal cliques are maximal and cover all edges" gen_graph
      (fun g ->
        let cliques = Cliques.maximal_cliques g in
        List.for_all (fun c -> Ugraph.is_clique g c) cliques
        && Ugraph.fold_edges
             (fun u v acc ->
               acc
               && List.exists
                    (fun c -> Iset.mem u c && Iset.mem v c)
                    cliques)
             g true);
    (* Near-chordal inputs: a random chordal graph, tree or gnp draw
       with up to three extra edges, so both verdicts occur. *)
    QCheck2.Test.make ~count:500
      ~name:"chordless cycle from the failed fill-in test iff not chordal"
      QCheck2.Gen.(tup3 (int_range 0 2) (int_range 4 12) (int_range 0 100000))
      (fun (family, n, seed) ->
        let rng = Workloads.Rng.make ~seed in
        let g =
          match family with
          | 0 -> Workloads.Gen_graph.random_chordal rng ~n ~max_clique:4
          | 1 -> Workloads.Gen_graph.random_tree rng ~n
          | _ -> Workloads.Gen_graph.gnp rng ~n ~p:0.3
        in
        let extra =
          List.init (Workloads.Rng.int rng 4) (fun _ ->
              (Workloads.Rng.int rng n, Workloads.Rng.int rng n))
          |> List.filter (fun (u, v) -> u <> v)
        in
        let g = Ugraph.of_edges ~n (Ugraph.edges g @ extra) in
        match Chordal.chordless_cycle_csr (Csr.of_ugraph g) with
        | None -> Chordal.is_chordal_brute g
        | Some cycle ->
          (not (Chordal.is_chordal_brute g))
          && Reference_sets.is_chordless_cycle g cycle);
  ]

let () =
  Alcotest.run "graphs"
    [
      ( "ugraph",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "rejects" `Quick test_rejects;
          Alcotest.test_case "private neighbors" `Quick test_private_neighbors;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "complement" `Quick test_complement;
        ] );
      ( "traverse",
        [
          Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
          Alcotest.test_case "within respected" `Quick test_within_respected;
          Alcotest.test_case "component containing" `Quick
            test_component_containing;
          Alcotest.test_case "shortest path" `Quick test_shortest_path;
        ] );
      ( "spanning",
        [
          Alcotest.test_case "spanning tree" `Quick test_spanning_tree;
          Alcotest.test_case "tree_check rejects" `Quick test_tree_check_rejects;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "acyclicity" `Quick test_acyclicity;
          Alcotest.test_case "enumeration" `Quick test_cycle_enumeration;
          Alcotest.test_case "chords" `Quick test_chords;
        ] );
      ("cliques", [ Alcotest.test_case "maximal cliques" `Quick test_cliques ]);
      ( "chordal",
        [
          Alcotest.test_case "basics" `Quick test_chordal_basic;
          Alcotest.test_case "PEO validity" `Quick test_peo_validity;
          Alcotest.test_case "simplicial nodes" `Quick test_simplicial;
        ] );
      ( "strongly-chordal",
        [
          Alcotest.test_case "basics" `Quick test_strongly_chordal_basics;
          Alcotest.test_case "suns" `Quick test_sun;
          Alcotest.test_case "simple vertices" `Quick test_simple_vertices;
        ] );
      ("dot", [ Alcotest.test_case "export" `Quick test_dot ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
