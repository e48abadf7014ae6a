(* Differential coverage for the flat CSR/bitset kernel layer: every
   kernel must agree exactly with an independent set-based
   implementation (the set-view oracles in test/reference_*.ml, or the
   original it replaced), on random workload instances. Bitset itself
   is tested against Iset as the model. *)

open Graphs
open Steiner

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let graph_of_seed ?(max_n = 12) seed =
  let rng = Workloads.Rng.make ~seed in
  let n = 1 + Workloads.Rng.int rng max_n in
  Workloads.Gen_graph.gnp rng ~n ~p:0.35

(* ------------------------------------------------------------ Bitset *)

(* Random add/remove trajectory, replayed against Iset: after every
   operation the two must describe the same set. *)
let prop_bitset_model =
  QCheck2.Test.make ~count:500 ~name:"Bitset add/remove mirrors Iset"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let len = 1 + Workloads.Rng.int rng 200 in
      let bs = Bitset.create len in
      let model = ref Iset.empty in
      let steps = Workloads.Rng.int rng 60 in
      let ok = ref true in
      for _ = 1 to steps do
        let i = Workloads.Rng.int rng len in
        if Workloads.Rng.bool rng 0.6 then begin
          Bitset.add bs i;
          model := Iset.add i !model
        end
        else begin
          Bitset.remove bs i;
          model := Iset.remove i !model
        end;
        ok := !ok && Bitset.mem bs i = Iset.mem i !model
      done;
      !ok
      && Iset.equal (Bitset.to_iset bs) !model
      && Bitset.min_elt_opt bs = Iset.min_elt_opt !model)

let random_subset rng len =
  let s = ref Iset.empty in
  for i = 0 to len - 1 do
    if Workloads.Rng.bool rng 0.4 then s := Iset.add i !s
  done;
  !s

(* --------------------------------------------------------------- Csr *)

let prop_csr_construction =
  QCheck2.Test.make ~count:500
    ~name:"Csr: rows sorted, degree sum = 2m, mem_edge symmetric" seed_gen
    (fun seed ->
      let g = graph_of_seed ~max_n:20 seed in
      let csr = Csr.of_ugraph g in
      let n = Ugraph.n g in
      let sorted_rows = ref true and degree_sum = ref 0 in
      for u = 0 to n - 1 do
        let row = Csr.sorted_neighbors csr u in
        degree_sum := !degree_sum + Array.length row;
        for k = 1 to Array.length row - 1 do
          if row.(k - 1) >= row.(k) then sorted_rows := false
        done;
        if Array.length row <> Csr.degree csr u then sorted_rows := false
      done;
      let mem_agrees = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if
            Csr.mem_edge csr u v <> Csr.mem_edge csr v u
            || (u <> v && Csr.mem_edge csr u v <> Ugraph.mem_edge g u v)
          then mem_agrees := false
        done
      done;
      !sorted_rows
      && !degree_sum = 2 * Ugraph.m g
      && Csr.n csr = n
      && Csr.m csr = Ugraph.m g
      && !mem_agrees
      && Ugraph.equal (Csr.to_ugraph csr) g)

(* The same edge set streamed in ascending order, so every row arrives
   sorted (some with repeated entries), and shuffled, so rows arrive
   unsorted, builds the same CSR as the [Ugraph]. Dense graphs push
   rows past the insertion-sort cutoff on both paths. *)
let prop_csr_presorted_rows =
  QCheck2.Test.make ~count:300
    ~name:"Csr.of_edge_iter: ascending rows = shuffled rows" seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let n = 1 + Workloads.Rng.int rng 90 in
      let g = Workloads.Gen_graph.gnp rng ~n ~p:0.6 in
      let ascending =
        List.sort compare
          (List.concat_map
             (fun (u, v) ->
               let e = (min u v, max u v) in
               if Workloads.Rng.bool rng 0.1 then [ e; e ] else [ e ])
             (Ugraph.edges g))
      in
      let shuffled = Workloads.Rng.shuffle rng ascending in
      let reference = Csr.of_ugraph g in
      Csr.equal (Csr.of_edges ~n ascending) reference
      && Csr.equal (Csr.of_edges ~n shuffled) reference)

(* ------------------------------------------------- MCS chordality *)

(* Half the graphs chordal by construction, so both verdicts occur at
   every size; [within] is absent or a random subset. *)
let chordal_case seed =
  let rng = Workloads.Rng.make ~seed in
  let n = 1 + Workloads.Rng.int rng 11 in
  let g =
    if Workloads.Rng.bool rng 0.5 then Workloads.Gen_graph.gnp rng ~n ~p:0.35
    else Workloads.Gen_graph.random_chordal rng ~n ~max_clique:4
  in
  let within =
    if Workloads.Rng.bool rng 0.5 then None
    else Some (random_subset rng (Ugraph.n g))
  in
  (g, within)

let prop_mcs_order =
  QCheck2.Test.make ~count:500
    ~name:"kernel MCS order permutes within, reversed is a PEO iff chordal"
    seed_gen
    (fun seed ->
      let g, within = chordal_case seed in
      let order = Chordal.mcs_order ?within g in
      List.sort compare order
      = Iset.elements (Ugraph.default_within g within)
      && Reference_sets.is_perfect_elimination_order_sets ?within g
           (List.rev order)
         = Chordal.is_chordal_brute ?within g)

let prop_chordal_within =
  QCheck2.Test.make ~count:500
    ~name:"kernel is_chordal within = reference pipeline = brute force"
    seed_gen
    (fun seed ->
      let g, within = chordal_case seed in
      let kernel = Chordal.is_chordal ?within g in
      kernel = Reference_sets.is_chordal_sets ?within g
      && kernel = Chordal.is_chordal_brute ?within g
      &&
      match Chordal.perfect_elimination_order ?within g with
      | None -> not kernel
      | Some peo ->
        kernel && Reference_sets.is_perfect_elimination_order_sets ?within g peo)

(* --------------------------------------------------------- Chordality *)

let prop_chordal_equal =
  QCheck2.Test.make ~count:500
    ~name:"kernel is_chordal = set-based = brute force" seed_gen
    (fun seed ->
      let g = graph_of_seed ~max_n:10 seed in
      let kernel = Chordal.is_chordal g in
      kernel = Reference_sets.is_chordal_sets g
      && kernel = Chordal.is_chordal_brute g)

let prop_peo_check_equal =
  QCheck2.Test.make ~count:500
    ~name:"kernel PEO check = set-based on arbitrary orders" seed_gen
    (fun seed ->
      let g = graph_of_seed ~max_n:12 seed in
      let rng = Workloads.Rng.make ~seed:(seed + 13) in
      (* Random permutations are usually not PEOs, so this exercises
         both the accepting and the rejecting paths of the checker. *)
      let order =
        Workloads.Rng.shuffle rng (Iset.elements (Ugraph.nodes g))
      in
      Chordal.is_perfect_elimination_order g order
      = Reference_sets.is_perfect_elimination_order_sets g order)

(* ------------------------------------------------- Cycle/chord scan *)

let prop_chord_scan_equal =
  QCheck2.Test.make ~count:500
    ~name:"kernel chord-bounded cycle scan = set-based" seed_gen
    (fun seed ->
      let g = graph_of_seed ~max_n:9 seed in
      let rng = Workloads.Rng.make ~seed:(seed + 29) in
      let min_len = 4 + (2 * Workloads.Rng.int rng 2) in
      let max_chords = Workloads.Rng.int rng 3 in
      Cycles.exists_cycle_with_few_chords g ~min_len ~max_chords
      = Reference_sets.exists_cycle_with_few_chords_sets g ~min_len ~max_chords)

(* --------------------------------------------------- Hyperedge MCS *)

(* The α kernel on random hypergraphs, half of them α-acyclic by
   construction: its verdict is GYO's, and when α holds its order is a
   permutation with the running intersection property and its
   R-parents form a join forest. *)
let prop_edge_mcs_gyo =
  QCheck2.Test.make ~count:500
    ~name:"hyperedge MCS kernel = GYO (verdict, RIP order, join forest)"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let n_edges = 1 + Workloads.Rng.int rng 8 in
      let h =
        if Workloads.Rng.bool rng 0.5 then
          Workloads.Gen_hyper.alpha_acyclic rng ~n_edges ~max_size:5
        else
          Workloads.Gen_hyper.random rng
            ~n_nodes:(2 + Workloads.Rng.int rng 8)
            ~n_edges ~max_size:5
      in
      match Hypergraphs.Mcs.run h with
      | None -> not (Gyo.alpha_acyclic h)
      | Some f ->
        let q = Hypergraphs.Hypergraph.n_edges h in
        let order = Array.to_list f.Hypergraphs.Mcs.order in
        Gyo.alpha_acyclic h
        && List.sort compare order = List.init q Fun.id
        && Hypergraphs.Join_tree.rip_holds h order
        && Hypergraphs.Join_tree.verify
             (Hypergraphs.Join_tree.make h ~parent:f.Hypergraphs.Mcs.parent))

(* --------------------------------------------------------- Algorithm 1 *)

(* One of the five [Gen_bipartite] families, by seed. *)
let bipartite_of_seed rng seed =
  let size = 2 + Workloads.Rng.int rng 5 in
  match seed mod 5 with
  | 0 -> Workloads.Gen_bipartite.alpha_bipartite rng ~n_right:size ~max_size:4
  | 1 ->
    Workloads.Gen_bipartite.gnp rng ~nl:size
      ~nr:(1 + Workloads.Rng.int rng 5)
      ~p:0.4
  | 2 -> Workloads.Gen_bipartite.forest rng ~n:(2 * size)
  | 3 -> Workloads.Gen_bipartite.chordal_62 rng ~n_right:size ~max_size:4
  | _ -> Workloads.Gen_bipartite.chordal_61_flower rng ~petals:size

let prop_algorithm1_equal =
  QCheck2.Test.make ~count:500
    ~name:"Algorithm 1 kernel elimination = set-based (full result)"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      (* Every bipartite family: in-class instances (success path) and
         arbitrary bipartite graphs (error paths). *)
      let g = bipartite_of_seed rng seed in
      let p =
        Workloads.Gen_bipartite.random_terminals rng g
          ~k:(2 + Workloads.Rng.int rng 3)
      in
      match (Algorithm1.solve g ~p, Reference_elimination.algorithm1_sets g ~p) with
      | Error e, Error e' -> e = e'
      | Ok r, Ok r' ->
        Iset.equal r.Algorithm1.tree.Tree.nodes r'.Algorithm1.tree.Tree.nodes
        && r.Algorithm1.tree.Tree.edges = r'.Algorithm1.tree.Tree.edges
        && r.Algorithm1.v2_count = r'.Algorithm1.v2_count
        && r.Algorithm1.elimination_order = r'.Algorithm1.elimination_order
      | Ok _, Error _ | Error _, Ok _ -> false)

(* Slicing: the CSR of an induced subgraph, cut straight from the
   parent's rows, equals the CSR of the set-based induced subgraph, and
   [local_index] inverts the id array. *)
let prop_csr_induced =
  QCheck2.Test.make ~count:500 ~name:"Csr.induced = set-based induced"
    seed_gen
    (fun seed ->
      let g = graph_of_seed ~max_n:20 seed in
      let w = random_subset (Workloads.Rng.make ~seed:(seed + 1)) (Ugraph.n g) in
      let sub, ids = Ugraph.induced g w in
      Csr.equal (Csr.induced (Csr.of_ugraph g) ids) (Csr.of_ugraph sub)
      && Array.for_all (fun v -> ids.(Csr.local_index ids v) = v) ids
      && Iset.for_all
           (fun v ->
             Iset.mem v w
             || match Csr.local_index ids v with
                | _ -> false
                | exception Not_found -> true)
           (Ugraph.nodes g))

(* -------------------------------------------------------- elimination *)

(* The one elimination kernel against the set-based fixpoint it
   replaced: same survivors, same number of considered candidates, on
   every bipartite family and on non-bipartite graphs, in increasing
   order, in a shuffled order of all nodes, and in a partial order. *)
let prop_elimination_equal =
  QCheck2.Test.make ~count:1000
    ~name:"Cover elimination kernel = set-based fixpoint (survivors, steps)"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let size = 2 + Workloads.Rng.int rng 6 in
      let bipartite g = Bipartite.Bigraph.ugraph g in
      let u =
        match seed mod 7 with
        | 0 ->
          bipartite
            (Workloads.Gen_bipartite.gnp rng ~nl:size ~nr:size ~p:0.35)
        | 1 -> bipartite (Workloads.Gen_bipartite.forest rng ~n:(2 * size))
        | 2 ->
          bipartite
            (Workloads.Gen_bipartite.chordal_62 rng ~n_right:size ~max_size:4)
        | 3 ->
          bipartite
            (Workloads.Gen_bipartite.alpha_bipartite rng ~n_right:size
               ~max_size:4)
        | 4 ->
          bipartite
            (Workloads.Gen_bipartite.chordal_61_flower rng ~petals:size)
        | 5 -> Workloads.Gen_graph.gnp rng ~n:(2 * size) ~p:0.3
        | _ ->
          Workloads.Gen_graph.random_connected rng ~n:(2 * size)
            ~extra_edges:size
      in
      let n = Ugraph.n u in
      (* Terminals from one component, which is the [within] scanned. *)
      let within = Traverse.component u (Workloads.Rng.int rng n) in
      let p =
        Iset.of_list
          (List.init (1 + Workloads.Rng.int rng 4) (fun _ ->
               Workloads.Rng.pick rng (Iset.elements within)))
      in
      let all = List.init n Fun.id in
      let order =
        match Workloads.Rng.int rng 3 with
        | 0 -> None
        | 1 -> Some (Workloads.Rng.shuffle rng all)
        | _ -> Some (Workloads.Rng.sample rng (n / 2) all)
      in
      let metrics = Observe.Metrics.make () in
      let kernel = Observe.Metrics.counter metrics "kernel"
      and sets = Observe.Metrics.counter metrics "sets" in
      Iset.equal
        (Cover.eliminate_redundant ?order ~steps:kernel u ~within ~p)
        (Reference_elimination.eliminate_sets ?order ~steps:sets u ~within ~p)
      && Observe.Metrics.count kernel = Observe.Metrics.count sets)

(* Algorithm 2's core on a component slice's CSR, as the session runs
   it, against [Algorithm2.solve] on the whole graph's set view and
   against the set-view reference (fixpoint, then [Tree.of_node_set]):
   the same tree edge for edge, the same [elimination.steps], the same
   number of budget checks. *)
let prop_algorithm2_core_equal =
  QCheck2.Test.make ~count:1000
    ~name:"Algorithm 2 CSR core = set view (tree, steps, budget checks)"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let g = bipartite_of_seed rng seed in
      let u = Bipartite.Bigraph.ugraph g in
      let p =
        Workloads.Gen_bipartite.random_terminals rng g
          ~k:(1 + Workloads.Rng.int rng 4)
      in
      let counted solve =
        let metrics = Observe.Metrics.make ()
        and budget = Runtime.Budget.make () in
        let tree = solve ~budget ~metrics in
        ( tree,
          Observe.Metrics.count
            (Observe.Metrics.counter metrics "elimination.steps"),
          Runtime.Budget.spent budget )
      in
      let same_tree a b =
        match (a, b) with
        | Some a, Some b ->
          Iset.equal a.Tree.nodes b.Tree.nodes && a.Tree.edges = b.Tree.edges
        | None, None -> true
        | Some _, None | None, Some _ -> false
      in
      match Traverse.component_containing u p with
      | None -> Algorithm2.solve u ~p = None
      | Some comp ->
        let slice, ids = Bipartite.Bigraph.induced g comp in
        let core, core_steps, core_checks =
          counted (fun ~budget ~metrics ->
              Algorithm2.solve_csr ~budget ~metrics
                (Bipartite.Bigraph.csr slice)
                ~p:(Iset.map (Csr.local_index ids) p)
              |> Option.map (Tree.relabel ids))
        in
        let whole, whole_steps, whole_checks =
          counted (fun ~budget ~metrics ->
              Algorithm2.solve ~budget ~metrics u ~p)
        in
        let metrics = Observe.Metrics.make () in
        let steps = Observe.Metrics.counter metrics "reference" in
        let reference =
          Tree.of_node_set u
            (Reference_elimination.eliminate_sets ~steps u ~within:comp ~p)
        in
        same_tree core whole && same_tree core reference
        && core_steps = whole_steps
        && core_steps = Observe.Metrics.count steps
        && core_checks = whole_checks && core_checks = core_steps)

let qcheck_cases =
  [
    prop_bitset_model;
    prop_csr_presorted_rows;
    prop_csr_construction;
    prop_mcs_order;
    prop_chordal_within;
    prop_chordal_equal;
    prop_peo_check_equal;
    prop_chord_scan_equal;
    prop_edge_mcs_gyo;
    prop_algorithm1_equal;
    prop_csr_induced;
    prop_elimination_equal;
    prop_algorithm2_core_equal;
  ]

let () =
  Alcotest.run "kernels"
    [ ("differential", List.map QCheck_alcotest.to_alcotest qcheck_cases) ]
