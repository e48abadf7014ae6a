(* Unit and property tests for the hypergraph substrate: GYO, MCS, join
   trees, the four acyclicity degrees and conformality — each efficient
   recogniser cross-checked against an independent definitional
   oracle. *)

open Graphs
open Hypergraphs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let h_of lists ~n =
  Hypergraph.create ~n_nodes:n (List.map Iset.of_list lists)

(* The classic examples. *)
let triangle = h_of ~n:3 [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ]
let triangle_covered = h_of ~n:3 [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ]; [ 0; 1; 2 ] ]
let chain = h_of ~n:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ]
let flower = Workloads.Gen_hyper.beta_flower (Workloads.Rng.make ~seed:0) ~petals:3

(* ------------------------------------------------------- Hypergraph *)

let test_construction () =
  check_int "nodes" 3 (Hypergraph.n_nodes triangle);
  check_int "edges" 3 (Hypergraph.n_edges triangle);
  check_int "total size" 6 (Hypergraph.total_size triangle);
  check "empty edge rejected" true
    (try
       ignore (Hypergraph.create ~n_nodes:2 [ Iset.empty ]);
       false
     with Invalid_argument _ -> true);
  check "incident" true
    (Iset.equal (Hypergraph.incident triangle 1) (Iset.of_list [ 0; 1 ]))

let test_dual_involution () =
  (* For a hypergraph without isolated nodes and duplicate-free dual,
     dual (dual h) has the same structure as h. *)
  let dd = Hypergraph.dual (Hypergraph.dual triangle) in
  check "dual of dual of the triangle" true
    (Hypergraph.equal_modulo_order dd triangle)

let test_two_section () =
  let g = Hypergraph.two_section triangle_covered in
  check_int "K3" 3 (Ugraph.m g);
  check "clique" true (Ugraph.is_clique g (Iset.range 3))

let test_restrict_and_reduce () =
  let r = Hypergraph.restrict triangle_covered (Iset.of_list [ 0; 1 ]) in
  check_int "restrict keeps nonempty intersections" 4 (Hypergraph.n_edges r);
  let red = Hypergraph.reduce triangle_covered in
  check_int "reduce keeps only the big edge" 1 (Hypergraph.n_edges red);
  let dup = h_of ~n:2 [ [ 0; 1 ]; [ 0; 1 ] ] in
  check_int "reduce collapses duplicates" 1
    (Hypergraph.n_edges (Hypergraph.reduce dup))

let test_incidence_graph () =
  let g, offset = Hypergraph.incidence_graph chain in
  check_int "offset" 4 offset;
  check_int "incidence edges = total size" 6 (Ugraph.m g);
  check "chain connected" true (Hypergraph.is_connected chain);
  let disconnected = h_of ~n:4 [ [ 0; 1 ]; [ 2; 3 ] ] in
  check "disconnected detected" false (Hypergraph.is_connected disconnected)

(* ------------------------------------------------------------- GYO *)

let test_gyo () =
  check "chain alpha-acyclic" true (Gyo.alpha_acyclic chain);
  check "triangle not alpha-acyclic" false (Gyo.alpha_acyclic triangle);
  check "covered triangle is alpha-acyclic" true
    (Gyo.alpha_acyclic triangle_covered)

(* The reduction's absorptions form a join tree of its own. *)
let test_gyo_join_tree () =
  let t = Gyo.run chain in
  check "reduced to nothing" true (t.Gyo.surviving_edges = []);
  let jt = Join_tree.make chain ~parent:t.Gyo.parent in
  check "coherent" true (Join_tree.verify jt);
  check "preorder has RIP" true
    (Join_tree.rip_holds chain (Join_tree.preorder jt))

(* The cycle check visits each edge once: a 20,000-edge chain rooted at
   its first edge (depth 20,000) builds in linear time — the walk to
   the root from every edge took ~440 ms — and a parent cycle anywhere
   in the array is still rejected. *)
let test_join_tree_make_linear () =
  let q = 20_000 in
  let long = h_of ~n:(q + 1) (List.init q (fun i -> [ i; i + 1 ])) in
  let parent = Array.init q (fun i -> i - 1) in
  let t0 = Unix.gettimeofday () in
  let jt = Join_tree.make long ~parent in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  check (Printf.sprintf "20,000-edge chain in %.1f ms < 50 ms" ms) true (ms < 50.);
  check_int "one root" 1 (List.length (Join_tree.roots jt));
  let rejects parent =
    match Join_tree.make chain ~parent with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check "two-cycle rejected" true (rejects [| 1; 0; -1 |]);
  check "cycle behind a tail rejected" true (rejects [| 1; 2; 1 |]);
  check "self-parent rejected" true (rejects [| -1; 1; 1 |]);
  check "out-of-range parent rejected" true (rejects [| -1; 7; 1 |]);
  check "shared ancestors accepted" false (rejects [| -1; 0; 0 |])

(* ------------------------------------------------------------- MCS *)

let test_mcs () =
  check "MCS agrees: chain" true (Mcs.alpha_acyclic chain);
  check "MCS agrees: triangle" false (Mcs.alpha_acyclic triangle);
  check "MCS agrees: covered triangle" true (Mcs.alpha_acyclic triangle_covered);
  (match Mcs.rip_ordering triangle_covered with
  | Some order -> check "RIP ordering verifies" true (Join_tree.rip_holds triangle_covered order)
  | None -> Alcotest.fail "expected a RIP ordering");
  match Mcs.join_tree chain with
  | Some jt -> check "R-parents form a join tree" true (Join_tree.verify jt)
  | None -> Alcotest.fail "chain has a join tree"

(* ----------------------------------------------------------- Berge *)

let test_berge () =
  check "chain Berge-acyclic" true (Berge.acyclic chain);
  check "triangle not Berge" false (Berge.acyclic triangle);
  let two_shared = h_of ~n:3 [ [ 0; 1 ]; [ 0; 1; 2 ] ] in
  check "two edges sharing two nodes form a Berge cycle" false
    (Berge.acyclic two_shared);
  (match Berge.find_berge_cycle two_shared with
  | Some (es, ns) ->
    check_int "q = 2 edges" 2 (List.length es);
    check_int "2 thread nodes" 2 (List.length ns)
  | None -> Alcotest.fail "expected a Berge cycle witness");
  check "no witness on chain" true (Berge.find_berge_cycle chain = None)

(* ------------------------------------------------------------ Beta *)

let test_beta () =
  check "chain beta" true (Beta.acyclic chain);
  check "covered triangle is NOT beta (the triangle is a beta-cycle)" false
    (Beta.acyclic triangle_covered);
  check "flower is beta" true (Beta.acyclic flower);
  (match Beta.elimination_order chain with
  | Some order -> check_int "eliminates all nodes" 4 (List.length order)
  | None -> Alcotest.fail "chain should eliminate");
  match Beta.find_beta_cycle triangle_covered with
  | Some (es, pures) ->
    check_int "beta-cycle of length 3" 3 (List.length es);
    check "pure sets nonempty" true
      (List.for_all (fun s -> not (Iset.is_empty s)) pures)
  | None -> Alcotest.fail "triangle is a beta cycle"

let test_nest_points () =
  check "leaf node of chain is a nest point" true (Beta.is_nest_point chain 0);
  check "triangle has no nest points" true
    (List.for_all (fun v -> not (Beta.is_nest_point triangle v)) [ 0; 1; 2 ])

(* ----------------------------------------------------------- Gamma *)

let test_gamma () =
  check "chain gamma" true (Gamma.acyclic chain);
  check "flower is beta but NOT gamma" false (Gamma.acyclic flower);
  check "flower special 3-cycle found" true (Gamma.special_3_cycle flower <> None);
  (* Two edges sharing two nodes: gamma-acyclic (no 3 edges), though
     not Berge-acyclic. *)
  let two_shared = h_of ~n:3 [ [ 0; 1 ]; [ 0; 1; 2 ] ] in
  check "two-edge overlap is gamma-acyclic" true (Gamma.acyclic two_shared)

(* ------------------------------------------------------- Conformal *)

let test_conformal () =
  check "triangle is NOT conformal (K3 in no edge)" false
    (Conformal.is_conformal triangle);
  check "covered triangle is conformal" true
    (Conformal.is_conformal triangle_covered);
  check "brute agrees on triangle" false (Conformal.is_conformal_brute triangle);
  check "brute agrees on covered" true
    (Conformal.is_conformal_brute triangle_covered);
  check "violation witness on triangle" true
    (Conformal.gilmore_violation triangle <> None)

(* -------------------------------------------------------- Acyclicity *)

let test_degrees () =
  check "chain is Berge degree" true
    (Acyclicity.degree chain = Acyclicity.Berge_acyclic);
  check "flower is Beta degree" true
    (Acyclicity.degree flower = Acyclicity.Beta_acyclic);
  check "covered triangle is Alpha degree" true
    (Acyclicity.degree triangle_covered = Acyclicity.Alpha_acyclic);
  check "triangle is Cyclic" true (Acyclicity.degree triangle = Acyclicity.Cyclic);
  let two_shared = h_of ~n:3 [ [ 0; 1 ]; [ 0; 1; 2 ] ] in
  check "two-edge overlap is Gamma degree" true
    (Acyclicity.degree two_shared = Acyclicity.Gamma_acyclic)

let test_witnesses () =
  (match Acyclicity.why_not triangle Acyclicity.Alpha_acyclic with
  | Some (Acyclicity.Gilmore_triple (i, j, k)) ->
    check "Gilmore triple (0, 1, 2)" true ((i, j, k) = (0, 1, 2))
  | _ -> Alcotest.fail "triangle must have an alpha witness");
  (match
     Acyclicity.why_not (h_of ~n:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ] ])
       Acyclicity.Alpha_acyclic
   with
  | Some (Acyclicity.Chordless_cycle c) ->
    check_int "square: 4-cycle" 4 (List.length c)
  | _ -> Alcotest.fail "square must have a chordless-cycle witness");
  (match Acyclicity.why_not flower Acyclicity.Gamma_acyclic with
  | Some (Acyclicity.Gamma_3_cycle _) -> check "gamma witness on flower" true true
  | _ -> Alcotest.fail "flower must have a gamma witness");
  (match Acyclicity.why_not triangle_covered Acyclicity.Beta_acyclic with
  | Some (Acyclicity.Beta_cycle es) -> check_int "beta cycle length 3" 3 (List.length es)
  | _ -> Alcotest.fail "covered triangle must have a beta witness");
  (match Acyclicity.why_not triangle_covered Acyclicity.Berge_acyclic with
  | Some (Acyclicity.Berge_cycle _) -> check "Berge witness" true true
  | _ -> Alcotest.fail "expected a Berge witness");
  check "no witness when the degree holds" true
    (Acyclicity.why_not chain Acyclicity.Berge_acyclic = None);
  check "witness printer says something" true
    (String.length
       (Format.asprintf "%a" Acyclicity.pp_witness
          (Acyclicity.Gamma_3_cycle (0, 1, 2)))
    > 0)

(* ----------------------------------------------------- Decomposition *)

let test_decomposition_basics () =
  let open Graphs in
  let path = Ugraph.of_edges ~n:5 (List.init 4 (fun i -> (i, i + 1))) in
  let d = Decomposition.min_fill path in
  check "path decomposition verifies" true (Decomposition.verify path d);
  check_int "path width 1" 1 (Decomposition.width d);
  let c5 = Workloads.Gen_graph.cycle 5 in
  let dc = Decomposition.min_fill c5 in
  check "cycle decomposition verifies" true (Decomposition.verify c5 dc);
  check_int "cycle width 2" 2 (Decomposition.width dc);
  let k4 =
    Ugraph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]
  in
  check_int "K4 width 3" 3 (Decomposition.width (Decomposition.min_fill k4))

let test_decomposition_hypergraph () =
  check_int "chain hypergraph width = max edge - 1" 1
    (Decomposition.width (Decomposition.of_hypergraph chain));
  check_int "covered triangle width 2" 2
    (Decomposition.width (Decomposition.of_hypergraph triangle_covered))

(* -------------------------------------------------------- properties *)

let gen_random_h =
  QCheck2.Gen.(
    tup3 (int_range 2 7) (int_range 1 6) (int_range 0 10000)
    |> map (fun (n, k, seed) ->
           let rng = Workloads.Rng.make ~seed in
           Workloads.Gen_hyper.random rng ~n_nodes:n ~n_edges:k ~max_size:4))

(* Families with repeated edges and nodes no edge covers, drawn from
   the cyclic, α, γ and β-flower generators so that every verdict
   occurs. *)
let gen_padded_h =
  QCheck2.Gen.(
    tup4 (int_range 0 3) (int_range 0 3) (int_range 0 3) (int_range 0 100000)
    |> map (fun (family, dups, pad, seed) ->
           let rng = Workloads.Rng.make ~seed in
           let n_edges = 1 + Workloads.Rng.int rng 6 in
           let h =
             match family with
             | 0 ->
               Workloads.Gen_hyper.random rng
                 ~n_nodes:(2 + Workloads.Rng.int rng 6)
                 ~n_edges ~max_size:4
             | 1 -> Workloads.Gen_hyper.alpha_acyclic rng ~n_edges ~max_size:4
             | 2 -> Workloads.Gen_hyper.gamma_acyclic rng ~n_edges ~max_size:4
             | _ ->
               Workloads.Gen_hyper.beta_flower rng
                 ~petals:(2 + Workloads.Rng.int rng 3)
           in
           let es = Array.to_list (Hypergraph.edges h) in
           let copies =
             List.init dups (fun _ ->
                 Workloads.Rng.pick rng es)
           in
           Hypergraph.create
             ~n_nodes:(Hypergraph.n_nodes h + pad)
             (es @ copies)))

(* Two [gen_padded_h] families side by side on disjoint nodes, the
   first also given a proper subset of one of its edges, in front or
   behind: the α kernel meets several components, nested edges,
   duplicates and uncovered nodes. *)
let gen_kernel_h =
  QCheck2.Gen.(
    tup3 gen_padded_h gen_padded_h (int_range 0 100000)
    |> map (fun (a, b, seed) ->
           let rng = Workloads.Rng.make ~seed in
           let shift = Hypergraph.n_nodes a in
           let es = Array.to_list (Hypergraph.edges a) in
           let e = Workloads.Rng.pick rng es in
           let nested =
             if Iset.cardinal e < 2 then []
             else [ Iset.remove (Iset.max_elt e) e ]
           in
           let es = if Workloads.Rng.bool rng 0.5 then nested @ es else es @ nested in
           let beside =
             List.map
               (Iset.map (fun v -> v + shift))
               (Array.to_list (Hypergraph.edges b))
           in
           Hypergraph.create
             ~n_nodes:(shift + Hypergraph.n_nodes b)
             (es @ beside)))

(* Replays a β-elimination order on the set view: every node is a nest
   point when its turn comes, and together they are the covered
   nodes. *)
let rec replays_beta h = function
  | [] -> Iset.is_empty (Hypergraph.covered_nodes h)
  | v :: rest ->
    Iset.mem v (Hypergraph.covered_nodes h)
    && Beta.is_nest_point h v
    && replays_beta (Hypergraph.remove_node h v) rest

let qcheck_cases =
  [
    QCheck2.Test.make ~count:500 ~name:"GYO = MCS alpha test" gen_kernel_h
      (fun h -> Gyo.alpha_acyclic h = Mcs.alpha_acyclic h);
    QCheck2.Test.make ~count:300
      ~name:"GYO = Definition 7 (chordal 2-section + conformal)"
      gen_random_h (fun h ->
        Gyo.alpha_acyclic h = Acyclicity.alpha_acyclic_by_definition h);
    QCheck2.Test.make ~count:300
      ~name:"nest-point beta = explicit beta-cycle search" gen_random_h
      (fun h -> Beta.acyclic h = (Beta.find_beta_cycle h = None));
    QCheck2.Test.make ~count:300
      ~name:"incidence-forest Berge = explicit Berge-cycle search"
      gen_random_h (fun h -> Berge.acyclic h = (Berge.find_berge_cycle h = None));
    QCheck2.Test.make ~count:300 ~name:"Gilmore conformality = clique oracle"
      gen_random_h (fun h ->
        Conformal.is_conformal h = Conformal.is_conformal_brute h);
    QCheck2.Test.make ~count:300
      ~name:"hierarchy Berge => gamma => beta => alpha" gen_random_h (fun h ->
        Acyclicity.hierarchy_consistent (Acyclicity.report h));
    QCheck2.Test.make ~count:500 ~name:"join tree coherent when GYO succeeds"
      gen_kernel_h (fun h ->
        match Mcs.run h with
        | None -> not (Gyo.alpha_acyclic h)
        | Some f ->
          let jt = Join_tree.make h ~parent:f.Mcs.parent in
          Gyo.alpha_acyclic h
          && Join_tree.verify jt
          && Join_tree.rip_holds h (Array.to_list f.Mcs.order)
          && Join_tree.rip_holds h (Join_tree.preorder jt));
    QCheck2.Test.make ~count:200
      ~name:"Corollary 1: Berge/gamma/beta acyclicity are self-dual"
      gen_random_h (fun h ->
        let d = Hypergraph.dual h in
        Berge.acyclic h = Berge.acyclic d
        && Gamma.acyclic h = Gamma.acyclic d
        && Beta.acyclic h = Beta.acyclic d);
    QCheck2.Test.make ~count:200 ~name:"generated alpha instances are alpha"
      QCheck2.Gen.(int_range 0 5000)
      (fun seed ->
        let rng = Workloads.Rng.make ~seed in
        let h = Workloads.Gen_hyper.alpha_acyclic rng ~n_edges:6 ~max_size:4 in
        Gyo.alpha_acyclic h);
    QCheck2.Test.make ~count:200 ~name:"generated gamma instances are gamma"
      QCheck2.Gen.(int_range 0 5000)
      (fun seed ->
        let rng = Workloads.Rng.make ~seed in
        let h = Workloads.Gen_hyper.gamma_acyclic rng ~n_edges:6 ~max_size:4 in
        Gamma.acyclic h);
    QCheck2.Test.make ~count:200 ~name:"generated Berge instances are Berge"
      QCheck2.Gen.(int_range 0 5000)
      (fun seed ->
        let rng = Workloads.Rng.make ~seed in
        let h = Workloads.Gen_hyper.berge_acyclic rng ~n_edges:6 ~max_size:4 in
        Berge.acyclic h);
    QCheck2.Test.make ~count:150 ~name:"restrict yields a subhypergraph"
      gen_random_h (fun h ->
        let keep =
          Iset.filter (fun v -> v mod 2 = 0) (Iset.range (Hypergraph.n_nodes h))
        in
        let r = Hypergraph.restrict h keep in
        Array.for_all
          (fun e -> Iset.subset e keep)
          (Hypergraph.edges r));
    QCheck2.Test.make ~count:250
      ~name:"Corollary 1 consequence: beta-acyclic => guarded node ordering"
      gen_random_h (fun h ->
        QCheck2.assume (Beta.acyclic h);
        match Beta.guarded_node_ordering h with
        | Some order -> Beta.is_guarded_node_ordering h order
        | None -> false);
    QCheck2.Test.make ~count:250
      ~name:"guarded ordering checker rejects bad permutations" gen_random_h
      (fun h ->
        (* The reversed guarded ordering is usually not guarded; at
           minimum the checker must reject orderings over the wrong
           node set. *)
        Beta.is_guarded_node_ordering h [] = Graphs.Iset.is_empty (Hypergraph.covered_nodes h));
    QCheck2.Test.make ~count:200
      ~name:"why_not witness present exactly when the degree is missed"
      gen_random_h (fun h ->
        let cases =
          [
            (Acyclicity.Berge_acyclic, Berge.acyclic h);
            (Acyclicity.Gamma_acyclic, Gamma.acyclic h);
            (Acyclicity.Beta_acyclic, Beta.acyclic h);
            (Acyclicity.Alpha_acyclic, Gyo.alpha_acyclic h);
          ]
        in
        List.for_all
          (fun (goal, holds) ->
            match Acyclicity.why_not h goal with
            | Some _ -> not holds
            | None -> holds)
          cases);
    QCheck2.Test.make ~count:200
      ~name:"min-fill decomposition always verifies"
      QCheck2.Gen.(tup2 (int_range 1 9) (int_range 0 5000))
      (fun (n, seed) ->
        let rng = Workloads.Rng.make ~seed in
        let g = Workloads.Gen_graph.gnp rng ~n ~p:0.4 in
        Decomposition.verify g (Decomposition.min_fill g));
    QCheck2.Test.make ~count:150
      ~name:"min-fill is exact on chordal graphs (width = clique - 1)"
      QCheck2.Gen.(int_range 0 3000)
      (fun seed ->
        let rng = Workloads.Rng.make ~seed in
        let g = Workloads.Gen_graph.random_chordal rng ~n:12 ~max_clique:4 in
        Decomposition.treewidth_upper g
        = Graphs.Cliques.max_clique_size g - 1);
    QCheck2.Test.make ~count:150
      ~name:"alpha-acyclic hypergraphs have width = max edge size - 1"
      QCheck2.Gen.(int_range 0 3000)
      (fun seed ->
        let rng = Workloads.Rng.make ~seed in
        let h = Workloads.Gen_hyper.alpha_acyclic rng ~n_edges:6 ~max_size:4 in
        let max_edge =
          Array.fold_left
            (fun acc e -> max acc (Graphs.Iset.cardinal e))
            0 (Hypergraph.edges h)
        in
        Decomposition.width (Decomposition.of_hypergraph h) = max_edge - 1);
    QCheck2.Test.make ~count:150
      ~name:"beta-acyclicity is hereditary under restriction" gen_random_h
      (fun h ->
        QCheck2.assume (Beta.acyclic h);
        let keep =
          Iset.filter (fun v -> v mod 2 = 0) (Iset.range (Hypergraph.n_nodes h))
        in
        Beta.acyclic (Hypergraph.restrict h keep));
    QCheck2.Test.make ~count:500
      ~name:"elimination kernels = set-view oracles (duplicates, uncovered)"
      gen_padded_h (fun h ->
        let gamma = Reference_classify.gamma_acyclic_sets h in
        let beta = Reference_classify.beta_acyclic_sets h in
        Gamma.acyclic h = gamma
        && Beta.acyclic h = beta
        &&
        match Beta.elimination_order h with
        | Some order -> beta && replays_beta h order
        | None -> not beta);
    QCheck2.Test.make ~count:300
      ~name:"Gilmore kernel = Iset reference, witness for witness"
      QCheck2.Gen.(pair gen_random_h gen_padded_h)
      (fun (h, padded) ->
        List.for_all
          (fun h ->
            Conformal.gilmore_violation h
            = Reference_classify.gilmore_violation_sets h)
          [ h; padded ]);
    QCheck2.Test.make ~count:500
      ~name:"alpha witness real, present exactly when GYO fails"
      QCheck2.Gen.(triple gen_random_h gen_padded_h gen_kernel_h)
      (fun (h, padded, kernel) ->
        List.for_all Gyo.alpha_witness_holds [ h; padded; kernel ]);
  ]

let () =
  Alcotest.run "hypergraphs"
    [
      ( "structure",
        [
          Alcotest.test_case "construction" `Quick test_construction;
          Alcotest.test_case "dual involution" `Quick test_dual_involution;
          Alcotest.test_case "two-section" `Quick test_two_section;
          Alcotest.test_case "restrict/reduce" `Quick test_restrict_and_reduce;
          Alcotest.test_case "incidence graph" `Quick test_incidence_graph;
        ] );
      ( "gyo",
        [
          Alcotest.test_case "alpha recognition" `Quick test_gyo;
          Alcotest.test_case "join tree" `Quick test_gyo_join_tree;
          Alcotest.test_case "join tree make is linear" `Quick
            test_join_tree_make_linear;
        ] );
      ("mcs", [ Alcotest.test_case "alpha + RIP" `Quick test_mcs ]);
      ("berge", [ Alcotest.test_case "recognition" `Quick test_berge ]);
      ( "beta",
        [
          Alcotest.test_case "recognition" `Quick test_beta;
          Alcotest.test_case "nest points" `Quick test_nest_points;
        ] );
      ("gamma", [ Alcotest.test_case "recognition" `Quick test_gamma ]);
      ("conformal", [ Alcotest.test_case "recognition" `Quick test_conformal ]);
      ("degrees", [ Alcotest.test_case "classification" `Quick test_degrees ]);
      ("witnesses", [ Alcotest.test_case "why_not" `Quick test_witnesses ]);
      ( "decomposition",
        [
          Alcotest.test_case "basics" `Quick test_decomposition_basics;
          Alcotest.test_case "hypergraph width" `Quick
            test_decomposition_hypergraph;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
