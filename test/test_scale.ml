(* Differential properties for the direct-to-CSR construction path:
   [Csr.of_edge_iter] / [Csr.Builder] must produce the exact arrays the
   set-based pipeline (Ugraph AVL sets, then [Csr.of_ugraph]) does, on
   any edge multiset — duplicated, reversed, out of order. Also pins
   the [Gen_scale] streaming families: direct ≡ sets construction,
   identical session answers over both, the advertised chordality class
   of each family, and the flat [Csr.components] layout against the
   set-based [Traverse.component_ids]. *)

open Graphs
open Bipartite

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let seed_gen = QCheck2.Gen.int_range 0 1_000_000

(* ------------------------------------------------ CSR differential *)

(* A messy edge multiset: valid endpoints, but with duplicates, swapped
   orientations and shuffled order — everything [of_edge_iter] promises
   to normalise away. *)
let gen_multiset =
  QCheck2.Gen.(
    int_range 2 40 >>= fun n ->
    list_size (int_range 0 120)
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    >>= fun raw ->
    let edges = List.filter (fun (u, v) -> u <> v) raw in
    (* Re-append a prefix, some reversed, so duplicates in both
       orientations are guaranteed to appear. *)
    let dups =
      List.filteri (fun i _ -> i mod 3 = 0) edges
      |> List.map (fun (u, v) -> (v, u))
    in
    return (n, edges @ dups))

let csr_matches_sets n edges =
  let direct = Csr.of_edges ~n edges in
  let u = Ugraph.of_edges ~n edges in
  let via_sets = Csr.of_ugraph u in
  Csr.equal direct via_sets
  && Csr.n direct = Ugraph.n u
  && Csr.m direct = Ugraph.m u
  && List.for_all
       (fun v ->
         Csr.degree direct v = Ugraph.degree u v
         && Array.to_list (Csr.sorted_neighbors direct v)
            = Iset.elements (Ugraph.neighbors u v))
       (List.init n (fun i -> i))
  && List.for_all
       (fun (a, b) ->
         Csr.mem_edge direct a b = Ugraph.mem_edge u a b)
       (List.concat_map (fun a -> List.map (fun b -> (a, b)) [ 0; n - 1 ])
          [ 0; n / 2; n - 1 ]
        |> List.filter (fun (a, b) -> a <> b))

let prop_csr_of_edges =
  QCheck2.Test.make ~count:300
    ~name:"Csr.of_edges = Csr.of_ugraph ∘ Ugraph.of_edges (multisets)"
    gen_multiset
    (fun (n, edges) -> csr_matches_sets n edges)

let prop_csr_builder =
  QCheck2.Test.make ~count:300
    ~name:"Csr.Builder.build = Csr.of_edges" gen_multiset
    (fun (n, edges) ->
      let b = Csr.Builder.create ~hint:4 n in
      List.iter (fun (u, v) -> Csr.Builder.add_edge b u v) edges;
      Csr.Builder.length b = List.length edges
      && Csr.equal (Csr.Builder.build b) (Csr.of_edges ~n edges))

let prop_components =
  QCheck2.Test.make ~count:200
    ~name:"Csr.components = Traverse.component_ids" gen_multiset
    (fun (n, edges) ->
      let c = Csr.of_edges ~n edges in
      let cs = Csr.components c in
      let ids', comps' = Traverse.component_ids (Csr.to_ugraph c) in
      cs.Csr.label = ids'
      && Csr.n_components cs = List.length comps'
      && Array.length cs.Csr.order = n
      && List.for_all2
           (fun k comp ->
             Array.to_list (Csr.members cs k) = Iset.elements comp)
           (List.init (Csr.n_components cs) Fun.id)
           comps')

(* The in-place insertion sort only covers rows up to 32 entries; a hub
   star (duplicated, reversed, shuffled) exercises the scratch-copy
   fallback for long rows. *)
let test_long_row () =
  let n = 80 in
  let spokes = List.init (n - 1) (fun i -> (0, i + 1)) in
  let edges =
    List.rev spokes
    @ List.map (fun (u, v) -> (v, u)) spokes
    @ List.filteri (fun i _ -> i mod 2 = 0) spokes
  in
  check "hub multiset matches set-based build" true (csr_matches_sets n edges);
  check_int "hub degree" (n - 1) (Csr.degree (Csr.of_edges ~n edges) 0)

(* [of_edge_iter] replays its stream; a stream whose second pass yields
   other edges than its first must raise, whether the change moves one
   edge's endpoint (two rows' counts change), drops edges (several rows
   fall short) or adds one (the last row overflows [col]). *)
let test_stream_change () =
  let n = 6 in
  let first = [ (0, 1); (0, 2); (1, 3); (3, 4); (4, 5) ] in
  let raises second =
    let pass = ref 0 in
    match
      Csr.of_edge_iter ~n (fun f ->
          incr pass;
          List.iter (fun (u, v) -> f u v) (if !pass = 1 then first else second))
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check "one endpoint moved" true
    (raises [ (0, 1); (0, 3); (1, 3); (3, 4); (4, 5) ]);
  check "edges dropped" true (raises [ (0, 1); (0, 2) ]);
  check "edge added" true (raises (first @ [ (4, 5) ]));
  check "an identical replay builds" false (raises first)

(* Bigraph construction paths agree all the way to the schema hash:
   the same edges in any insertion order hash alike, and one more left
   node or one edge fewer hashes differently. *)
let prop_bigraph_of_edge_iter =
  QCheck2.Test.make ~count:200
    ~name:"Bigraph.of_edge_iter = Bigraph.of_edges (incl. schema_hash)"
    QCheck2.Gen.(
      triple (int_range 1 12) (int_range 1 12) (int_range 0 1_000_000))
    (fun (nl, nr, seed) ->
      let rng = Workloads.Rng.make ~seed in
      let edges = ref [] in
      for i = 0 to nl - 1 do
        for j = 0 to nr - 1 do
          if Workloads.Rng.bool rng 0.3 then edges := (i, j) :: !edges
        done
      done;
      let edges = !edges in
      let direct =
        Bigraph.of_edge_iter ~nl ~nr (fun f ->
            List.iter (fun (i, j) -> f i j) edges)
      in
      let via_sets = Bigraph.of_edges ~nl ~nr edges in
      let h = Minconn.Compiled.schema_hash in
      Bigraph.equal direct via_sets
      && h direct = h via_sets
      && h direct = h (Bigraph.of_edges ~nl ~nr (List.rev edges))
      && h direct <> h (Bigraph.of_edges ~nl:(nl + 1) ~nr edges)
      && (edges = [] || h direct <> h (Bigraph.of_edges ~nl ~nr (List.tl edges))))

(* The schema hash is a pure function of the graph, and a one-node
   size perturbation of a random schema moves it. *)
let prop_schema_hash_separates =
  QCheck2.Test.make ~count:100 ~name:"schema_hash separates schemas"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let nl = 2 + Workloads.Rng.int rng 9
      and nr = 2 + Workloads.Rng.int rng 9 in
      let g = Workloads.Gen_bipartite.gnp rng ~nl ~nr ~p:0.3 in
      let h = Minconn.Compiled.schema_hash g in
      let bigger =
        Workloads.Gen_bipartite.gnp rng ~nl:(nl + 1) ~nr ~p:0.3
      in
      h = Minconn.Compiled.schema_hash g
      && h <> Minconn.Compiled.schema_hash bigger)

(* ------------------------------------------------ Gen_scale families *)

let families =
  Workloads.Gen_scale.[ Forest; Chordal62; Alpha ]

let prop_gen_scale_direct_eq_sets =
  QCheck2.Test.make ~count:60
    ~name:"Gen_scale direct-CSR = set-based construction" seed_gen
    (fun seed ->
      List.for_all
        (fun fam ->
          let inst =
            Workloads.Gen_scale.make fam ~target_n:(60 + (seed mod 90)) ~seed
          in
          let direct = Workloads.Gen_scale.to_bigraph inst in
          let sets = Reference_sets.to_bigraph_sets inst in
          Bigraph.equal direct sets
          && Csr.equal (Bigraph.csr direct) (Bigraph.csr sets)
          && Workloads.Gen_scale.m inst = Bigraph.m direct)
        families)

(* Identical solve answers whether the plan was compiled from the
   stream-built graph or the set-built one. *)
let prop_gen_scale_same_answers =
  QCheck2.Test.make ~count:30
    ~name:"Gen_scale: session answers agree across construction paths"
    seed_gen
    (fun seed ->
      List.for_all
        (fun fam ->
          let inst = Workloads.Gen_scale.make fam ~target_n:80 ~seed in
          let s_direct =
            Minconn.Session.create
              (Minconn.Compiled.compile (Workloads.Gen_scale.to_bigraph inst))
          in
          let s_sets =
            Minconn.Session.create
              (Minconn.Compiled.compile
                 (Reference_sets.to_bigraph_sets inst))
          in
          let blocks = Workloads.Gen_scale.n_blocks inst in
          List.for_all
            (fun b ->
              let p =
                Workloads.Gen_scale.block_terminals inst
                  ~block:(b * (blocks - 1) / 3)
                  ~k:(2 + b)
              in
              match
                ( Minconn.Session.query s_direct ~p,
                  Minconn.Session.query s_sets ~p )
              with
              | Ok a, Ok b ->
                Iset.equal a.Minconn.tree.Steiner.Tree.nodes
                  b.Minconn.tree.Steiner.Tree.nodes
                && a.Minconn.tree.Steiner.Tree.edges
                   = b.Minconn.tree.Steiner.Tree.edges
                && a.Minconn.method_used = b.Minconn.method_used
              | Error ea, Error eb -> ea = eb
              | Ok _, Error _ | Error _, Ok _ -> false)
            [ 0; 1; 2; 3 ])
        families)

(* Advertised chordality class of each family (the reason the scale
   bench can claim which solver rung its instances exercise). *)
let family_profile fam ~seed =
  let inst = Workloads.Gen_scale.make fam ~target_n:150 ~seed in
  Classify.profile (Workloads.Gen_scale.to_bigraph inst)

let test_family_classes () =
  List.iter
    (fun seed ->
      let p = family_profile Workloads.Gen_scale.Forest ~seed in
      check "forest is (4,1)-chordal" true p.Classify.chordal_41;
      check "forest is (6,2)-chordal" true p.Classify.chordal_62;
      let p = family_profile Workloads.Gen_scale.Chordal62 ~seed in
      check "chordal62 is not (4,1)" false p.Classify.chordal_41;
      check "chordal62 is (6,2)-chordal" true p.Classify.chordal_62;
      let p = family_profile Workloads.Gen_scale.Alpha ~seed in
      check "alpha is not (6,2)" false p.Classify.chordal_62;
      check "alpha is α-acyclic (H¹)" true p.Classify.alpha_h1)
    [ 0; 7; 42 ]

(* Every component of every family admits Algorithm 1 (α-acyclicity
   per component), so million-node sessions never fall back to the
   exponential rung on in-block terminal sets. The maximum cardinality
   search kernel runs on each component's slice, as Algorithm 1's
   Step 1 does; the plan's profile is not read, since on (6,1) blocks
   it comes from β-elimination. *)
let test_family_alg1_prep () =
  List.iter
    (fun fam ->
      let g = Workloads.Gen_scale.to_bigraph
          (Workloads.Gen_scale.make fam ~target_n:200 ~seed:11) in
      let c = Minconn.Compiled.compile g in
      check
        (Workloads.Gen_scale.family_name fam ^ " components admit Algorithm 1")
        true
        (Array.for_all
           (fun comp ->
             let slice, _ = Bigraph.induced g comp.Minconn.Compiled.nodes in
             Option.is_some
               (Hypergraphs.Mcs.incidence (Bigraph.csr slice)
                  ~boundary:(Bigraph.nl slice)))
           c.Minconn.Compiled.components))
    families

let test_block_terminals () =
  let inst = Workloads.Gen_scale.make Workloads.Gen_scale.Chordal62
      ~target_n:100 ~seed:3 in
  let ids = (Csr.components (Workloads.Gen_scale.to_csr inst)).Csr.label in
  List.iter
    (fun b ->
      let p = Workloads.Gen_scale.block_terminals inst ~block:b ~k:3 in
      let cs = List.map (fun v -> ids.(v)) (Iset.elements p) in
      check "terminals land in one component" true
        (List.for_all (fun c -> c = List.hd cs) cs))
    [ 0; 1; Workloads.Gen_scale.n_blocks inst - 1 ]

let qcheck_cases =
  [
    prop_csr_of_edges;
    prop_csr_builder;
    prop_components;
    prop_bigraph_of_edge_iter;
    prop_gen_scale_direct_eq_sets;
    prop_gen_scale_same_answers;
  ]

let () =
  Alcotest.run "scale"
    [
      ( "csr",
        [
          Alcotest.test_case "long-row sort fallback" `Quick test_long_row;
          Alcotest.test_case "stream change between passes raises" `Quick
            test_stream_change;
        ] );
      ( "gen-scale",
        [
          Alcotest.test_case "family classes" `Quick test_family_classes;
          Alcotest.test_case "alg1 prep per component" `Quick
            test_family_alg1_prep;
          Alcotest.test_case "block terminals" `Quick test_block_terminals;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
      ( "round-trip",
        [ QCheck_alcotest.to_alcotest prop_schema_hash_separates ] );
    ]
