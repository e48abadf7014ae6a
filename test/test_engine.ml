(* Compile-once / query-many equivalence: a [Minconn.Session] over a
   compiled schema must answer every terminal-set query — success,
   typed error, budget-exhausted, or degraded — exactly as the
   one-shot [Minconn.solve] does, across a batch. Because both run
   the same session code, the sliced ladder is also checked against
   each rung called directly on the whole graph, over disjoint unions
   where the terminals' component is a strict slice. Also covers the
   lazily-memoized compiled handles on [Datamodel.Schema] /
   [Datamodel.Layered]. *)

open Graphs
open Bipartite
open Steiner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let sol_equal (a : Minconn.solution) (b : Minconn.solution) =
  Iset.equal a.Minconn.tree.Tree.nodes b.Minconn.tree.Tree.nodes
  && a.Minconn.tree.Tree.edges = b.Minconn.tree.Tree.edges
  && a.Minconn.method_used = b.Minconn.method_used
  && a.Minconn.optimal = b.Minconn.optimal
  && a.Minconn.profile = b.Minconn.profile
  && a.Minconn.provenance = b.Minconn.provenance

(* Equal results, and successful trees must actually be valid covers —
   two implementations agreeing on a broken tree should still fail. *)
let result_equal u ~p a b =
  match (a, b) with
  | Ok sa, Ok sb ->
    sol_equal sa sb && Tree.verify u ~terminals:p sa.Minconn.tree
  | Error ea, Error eb -> ea = eb
  | Ok _, Error _ | Error _, Ok _ -> false

(* A batch of terminal sets with deliberately unfiltered pathologies:
   singletons, disconnected picks, and the occasional empty set all
   must round-trip through the session identically to one-shot. *)
let query_batch rng g =
  List.init 6 (fun _ ->
      if Workloads.Rng.bool rng 0.1 then Iset.empty
      else
        Workloads.Gen_bipartite.random_terminals rng g
          ~k:(1 + Workloads.Rng.int rng 4))

let batch_matches_oneshot g queries =
  let u = Bigraph.ugraph g in
  let session = Minconn.Session.create (Minconn.Compiled.compile g) in
  let batch = Minconn.Session.solve_many session queries in
  List.for_all2
    (fun p r -> result_equal u ~p (Minconn.solve g ~p) r)
    queries batch

let prop_session_equal_gnp =
  QCheck2.Test.make ~count:150
    ~name:"Session.solve_many = per-call Minconn.solve (bipartite G(n,p))"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let nl = 2 + Workloads.Rng.int rng 9
      and nr = 2 + Workloads.Rng.int rng 9 in
      let g = Workloads.Gen_bipartite.gnp rng ~nl ~nr ~p:0.3 in
      batch_matches_oneshot g (query_batch rng g))

let prop_session_equal_chordal62 =
  QCheck2.Test.make ~count:150
    ~name:"Session.solve_many = per-call Minconn.solve ((6,2)-chordal)"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let n_right = 2 + Workloads.Rng.int rng 6 in
      let g = Workloads.Gen_bipartite.chordal_62 rng ~n_right ~max_size:4 in
      batch_matches_oneshot g (query_batch rng g))

(* Lemma 5 on connected schemas of about a thousand nodes: the session
   eliminates inside the seed cover only, and its tree must still cost
   what the exact DP's does. *)
let prop_seeded_algorithm2_exact_connected =
  QCheck2.Test.make ~count:40
    ~name:"seeded Algorithm 2 = Dreyfus-Wagner (connected (6,2), n ~ 10^3)"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let n_right = 250 + Workloads.Rng.int rng 100 in
      let g = Workloads.Gen_bipartite.chordal_62 rng ~n_right ~max_size:4 in
      let p =
        Workloads.Gen_bipartite.random_terminals rng g
          ~k:(2 + Workloads.Rng.int rng 5)
      in
      let session = Minconn.Session.create (Minconn.Compiled.compile g) in
      match
        ( Minconn.Session.query session ~p,
          Dreyfus_wagner.solve_csr (Bigraph.csr g) ~terminals:p )
      with
      | Ok s, Some opt ->
        s.Minconn.method_used = Minconn.Used_algorithm2
        && Tree.verify_csr (Bigraph.csr g) ~terminals:p s.Minconn.tree
        && Tree.node_count s.Minconn.tree = Tree.node_count opt
      | _ -> false)

(* Fuel-metered paths: the session must exhaust, abandon rungs, and
   degrade on exactly the same query the one-shot solver does, because
   compilation is never metered and fuel starts fresh per query. Only
   fuel budgets are used here — deadlines are wall-clock and would make
   the comparison racy. *)
let prop_session_equal_under_fuel =
  QCheck2.Test.make ~count:150
    ~name:"Session = one-shot under fuel budgets (degrade on and off)"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let nl = 2 + Workloads.Rng.int rng 9
      and nr = 2 + Workloads.Rng.int rng 9 in
      let g = Workloads.Gen_bipartite.gnp rng ~nl ~nr ~p:0.3 in
      let u = Bigraph.ugraph g in
      let p =
        Workloads.Gen_bipartite.random_terminals rng g
          ~k:(1 + Workloads.Rng.int rng 4)
      in
      let fuel = 1 + Workloads.Rng.int rng 40 in
      let session = Minconn.Session.create (Minconn.Compiled.compile g) in
      List.for_all
        (fun degrade ->
          let one =
            Minconn.solve ~budget:(Minconn.Budget.make ~fuel ()) ~degrade g ~p
          in
          let ses =
            Minconn.Session.query
              ~make_budget:(fun () -> Minconn.Budget.make ~fuel ())
              ~degrade session ~p
          in
          result_equal u ~p one ses)
        [ true; false ])

(* ------------------------------------------ multi-component inputs *)

(* A disjoint union of two or three draws of one family: lefts of each
   draw follow the previous draws' lefts, rights likewise. Every class
   the tests rely on — (4,1)- and (6,2)-chordality, α-acyclicity — is
   closed under disjoint union, so the union keeps the family's class
   while the session must slice one component out of several. *)
let union_of parts =
  let nl = List.fold_left (fun acc g -> acc + Bigraph.nl g) 0 parts
  and nr = List.fold_left (fun acc g -> acc + Bigraph.nr g) 0 parts in
  let _, _, edges =
    List.fold_left
      (fun (ol, or_, acc) g ->
        ( ol + Bigraph.nl g,
          or_ + Bigraph.nr g,
          List.map (fun (i, j) -> (ol + i, or_ + j)) (Bigraph.edges g) @ acc ))
      (0, 0, []) parts
  in
  Bigraph.of_edges ~nl ~nr edges

let disjoint_union draw rng =
  union_of (List.init (2 + Workloads.Rng.int rng 2) (fun _ -> draw rng))

(* 1 to 4 terminals from a randomly chosen component — not always the
   largest, so slices of every size are exercised. *)
let component_terminals rng g =
  let comp = Workloads.Rng.pick rng (Traverse.components (Bigraph.ugraph g)) in
  Iset.of_list
    (Workloads.Rng.sample rng (1 + Workloads.Rng.int rng 4) (Iset.elements comp))

(* (4,1)-chordal, (6,2)-chordal, and unstructured draws: one family per
   licensed rung. *)
let union_families =
  [
    (fun rng ->
      Workloads.Gen_bipartite.forest rng ~n:(2 + Workloads.Rng.int rng 8));
    (fun rng ->
      Workloads.Gen_bipartite.chordal_62 rng
        ~n_right:(1 + Workloads.Rng.int rng 4)
        ~max_size:4);
    (fun rng ->
      Workloads.Gen_bipartite.gnp rng
        ~nl:(2 + Workloads.Rng.int rng 5)
        ~nr:(2 + Workloads.Rng.int rng 5)
        ~p:0.4);
  ]

(* The rung behind each method, called directly on the whole graph's
   set view: the references the session's sliced ladder must match. *)
let whole_graph_rung u ~p = function
  | Minconn.Used_forest ->
    let csr = Csr.of_ugraph u in
    Option.bind (Cover.seed csr ~p) (fun ids ->
        Tree.of_csr_node_set csr (Iset.of_array ids))
  | Minconn.Used_algorithm2 | Minconn.Used_elimination -> Algorithm2.solve u ~p
  | Minconn.Used_exact_dp -> Dreyfus_wagner.solve u ~terminals:p
  | Minconn.Used_mst_approx -> Mst_approx.solve u ~terminals:p

let same_tree (a : Tree.t) (b : Tree.t) =
  Iset.equal a.Tree.nodes b.Tree.nodes && a.Tree.edges = b.Tree.edges

(* Unbudgeted, the session picks the rung the terminals' component's
   profile licenses (the reference classifier on that component, not
   the whole union's profile); under a fuel budget of 0 or 1 the
   budgeted rungs give way, usually to the MST approximation. Either
   way the answer must be the tree the rung that ran returns on the
   whole graph. *)
let prop_sliced_ladder_equals_whole_graph =
  QCheck2.Test.make ~count:300
    ~name:"sliced session ladder = whole-graph rungs (disjoint unions)"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let draw = Workloads.Rng.pick rng union_families in
      let g = disjoint_union draw rng in
      let u = Bigraph.ugraph g in
      let p = component_terminals rng g in
      let session = Minconn.Session.create (Minconn.Compiled.compile g) in
      let comp =
        List.find (Iset.mem (Iset.min_elt p)) (Traverse.components u)
      in
      let profile =
        Reference_classify.reference_profile (fst (Bigraph.induced g comp))
      in
      let licensed =
        if profile.Classify.chordal_41 then Minconn.Used_forest
        else if profile.Classify.chordal_62 then Minconn.Used_algorithm2
        else Minconn.Used_exact_dp
      in
      let matches (s : Minconn.solution) =
        match whole_graph_rung u ~p s.Minconn.method_used with
        | Some t -> same_tree t s.Minconn.tree
        | None -> false
      in
      (match Minconn.Session.query session ~p with
      | Ok s -> s.Minconn.method_used = licensed && matches s
      | Error _ -> false)
      &&
      match
        Minconn.Session.query
          ~make_budget:
            (let fuel = Workloads.Rng.int rng 2 in
             fun () -> Minconn.Budget.make ~fuel ())
          session ~p
      with
      | Ok s -> matches s
      | Error _ -> false)

(* A plan of one component answers on the graph itself, skipping the
   slice. The same schema beside a one-edge bystander (one left and one
   right appended) goes through the slice and relabel path instead, and
   must give the same answer up to the renumbering of the rights. *)
let prop_single_component_equals_sliced =
  QCheck2.Test.make ~count:200
    ~name:"one-component plan answers = the same schema sliced" seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let draw = Workloads.Rng.pick rng union_families in
      let rec connected () =
        let g = draw rng in
        if Bigraph.n g > 1 && Bigraph.is_connected g then g else connected ()
      in
      let g = connected () in
      let nl = Bigraph.nl g in
      let union = union_of [ g; Bigraph.of_edges ~nl:1 ~nr:1 [ (0, 0) ] ] in
      let ids =
        Array.init (Bigraph.n g) (fun v -> if v < nl then v else v + 1)
      in
      let p =
        Iset.of_list
          (Workloads.Rng.sample rng
             (1 + Workloads.Rng.int rng 4)
             (List.init (Bigraph.n g) Fun.id))
      in
      let fuel = Workloads.Rng.int rng 3 in
      let answer g p =
        let session = Minconn.Session.create (Minconn.Compiled.compile g) in
        ( Minconn.Session.query session ~p,
          Minconn.Session.query
            ~make_budget:(fun () -> Minconn.Budget.make ~fuel ())
            session ~p )
      in
      let whole, whole_fuel = answer g p in
      let sliced, sliced_fuel = answer union (Iset.map (fun v -> ids.(v)) p) in
      let same a b =
        match (a, b) with
        | Ok (a : Minconn.solution), Ok (b : Minconn.solution) ->
          same_tree (Tree.relabel ids a.Minconn.tree) b.Minconn.tree
          && a.Minconn.method_used = b.Minconn.method_used
          && a.Minconn.optimal = b.Minconn.optimal
          && a.Minconn.profile = b.Minconn.profile
          && a.Minconn.provenance = b.Minconn.provenance
        | Error ea, Error eb -> ea = eb
        | _ -> false
      in
      Minconn.Compiled.n_components (Minconn.Compiled.compile g) = 1
      && same whole sliced
      && same whole_fuel sliced_fuel)

(* ------------------------------------------------ component layout *)

(* Many components of every shape: isolated lefts and rights, single
   edges, small family draws (a gnp draw may itself be disconnected),
   with both sides permuted so components interleave in index order —
   or, one time in five, one connected draw. *)
let layout_schema rng =
  let part rng =
    match Workloads.Rng.int rng 6 with
    | 0 -> Bigraph.create ~nl:1 ~nr:0
    | 1 -> Bigraph.create ~nl:0 ~nr:1
    | 2 -> Bigraph.of_edges ~nl:1 ~nr:1 [ (0, 0) ]
    | 3 -> Workloads.Gen_bipartite.forest rng ~n:(2 + Workloads.Rng.int rng 6)
    | 4 ->
      Workloads.Gen_bipartite.chordal_62 rng
        ~n_right:(1 + Workloads.Rng.int rng 3)
        ~max_size:4
    | _ ->
      Workloads.Gen_bipartite.gnp rng
        ~nl:(1 + Workloads.Rng.int rng 4)
        ~nr:(1 + Workloads.Rng.int rng 4)
        ~p:0.3
  in
  if Workloads.Rng.int rng 5 = 0 then
    Workloads.Gen_bipartite.alpha_bipartite rng
      ~n_right:(1 + Workloads.Rng.int rng 6)
      ~max_size:4
  else begin
    let parts = List.init (Workloads.Rng.int rng 12) (fun _ -> part rng) in
    let nl = List.fold_left (fun acc g -> acc + Bigraph.nl g) 0 parts
    and nr = List.fold_left (fun acc g -> acc + Bigraph.nr g) 0 parts in
    let perm k = Array.of_list (Workloads.Rng.shuffle rng (List.init k Fun.id)) in
    let pl = perm nl and pr = perm nr in
    let _, _, edges =
      List.fold_left
        (fun (ol, or_, acc) g ->
          ( ol + Bigraph.nl g,
            or_ + Bigraph.nr g,
            List.map (fun (i, j) -> (pl.(ol + i), pr.(or_ + j))) (Bigraph.edges g)
            @ acc ))
        (0, 0, []) parts
    in
    Bigraph.of_edges ~nl ~nr edges
  end

(* The plan as the set-based path builds it: components from
   [Traverse.component_ids], each cut by [Bigraph.induced] and
   classified by [Classify.profile_connected]. *)
let reference_plan g =
  let ids, comps = Traverse.component_ids (Bigraph.ugraph g) in
  ( ids,
    Array.of_list
      (List.map
         (fun nodes ->
           (nodes, Classify.profile_connected (fst (Bigraph.induced g nodes))))
         comps) )

(* Compile leaves every profile memo empty; [Compiled.profile] fills
   each with its component's reference profile and combines them into
   the whole graph's. *)
let prop_layout_equals_reference =
  QCheck2.Test.make ~count:300
    ~name:"compile on the flat layout = set-based per-component plan"
    seed_gen
    (fun seed ->
      let g = layout_schema (Workloads.Rng.make ~seed) in
      let plan = Minconn.Compiled.compile g in
      let ref_ids, ref_comps = reference_plan g in
      let open Minconn.Compiled in
      let memos () =
        Array.map (fun c -> Atomic.get c.cprofile) plan.components
      in
      let cs = Csr.components (Bigraph.csr g) in
      let local = Array.make (Bigraph.n g) 0 in
      plan.comp_id = ref_ids
      && cs.Csr.label = ref_ids
      && Array.length plan.components = Array.length ref_comps
      && Array.for_all2
           (fun a (nodes, _) -> Iset.equal a.nodes nodes)
           plan.components ref_comps
      && Array.for_all Option.is_none (memos ())
      && profile plan = Classify.combine (Array.map snd ref_comps)
      && Classify.profile g = profile plan
      && memos () = Array.map (fun (_, p) -> Some p) ref_comps
      && Bigraph.is_connected g = (Array.length ref_comps <= 1)
      && List.for_all
           (fun k ->
             Bigraph.equal
               (Bigraph.slice g cs ~local k)
               (fst (Bigraph.induced g (fst ref_comps.(k)))))
           (List.init (Csr.n_components cs) Fun.id)
      && (Csr.n_components cs <> 1 || Bigraph.slice g cs ~local 0 == g))

(* ------------------------------------------------ mixed-class schema *)

(* A chordless cycle on [k] lefts and [k] rights (neither (6,1)- nor
   α-acyclic on either side when k >= 3 — a 2k-cycle), with a few
   pendant nodes hung off it. *)
let cyclic_component rng =
  let k = 3 + Workloads.Rng.int rng 3 in
  let cycle =
    List.concat (List.init k (fun i -> [ (i, i); ((i + 1) mod k, i) ]))
  in
  let extra = Workloads.Rng.int rng 3 in
  let pendants =
    List.init extra (fun x -> (Workloads.Rng.int rng k, k + x))
  in
  Bigraph.of_edges ~nl:k ~nr:(k + extra) (cycle @ pendants)

(* One draw of each class the ladder tells apart: a forest, a
   (6,2)-chordal draw that is not a forest (redrawn until it is not),
   a (6,1)-chordal flower that is not (6,2)-chordal, and a cyclic
   component, in random order. The union's own profile is the
   conjunction, so it licenses no structured rung. *)
let mixed_schema rng =
  let rec chordal_62 () =
    let g =
      Workloads.Gen_bipartite.chordal_62 rng
        ~n_right:(2 + Workloads.Rng.int rng 2)
        ~max_size:4
    in
    if (Classify.profile g).Classify.chordal_41 then chordal_62 () else g
  in
  union_of
    (Workloads.Rng.shuffle rng
       [
         Workloads.Gen_bipartite.forest rng ~n:(2 + Workloads.Rng.int rng 7);
         chordal_62 ();
         Workloads.Gen_bipartite.chordal_61_flower rng
           ~petals:(2 + Workloads.Rng.int rng 2);
         cyclic_component rng;
       ])

(* Every query takes the rung its own component licenses — the forest
   seed, Algorithm 2, or the exact DP — answers [optimal], and costs
   what the exhaustive oracle finds on that component. *)
let prop_mixed_class_rungs =
  QCheck2.Test.make ~count:100
    ~name:"mixed-class schema: each component's licensed rung, optimal"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let g = mixed_schema rng in
      let u = Bigraph.ugraph g in
      let session = Minconn.Session.create (Minconn.Compiled.compile g) in
      let whole = Classify.profile g in
      let rungs = ref [] in
      let ok =
        (not whole.Classify.chordal_61)
        && List.for_all
             (fun comp ->
               let sub, ids = Bigraph.induced g comp in
               let profile = Reference_classify.reference_profile sub in
               let licensed =
                 if profile.Classify.chordal_41 then Minconn.Used_forest
                 else if profile.Classify.chordal_62 then
                   Minconn.Used_algorithm2
                 else Minconn.Used_exact_dp
               in
               rungs := licensed :: !rungs;
               let p =
                 Iset.of_list
                   (Workloads.Rng.sample rng
                      (1 + Workloads.Rng.int rng 4)
                      (Iset.elements comp))
               in
               let local = Iset.map (Csr.local_index ids) p in
               match
                 ( Minconn.Session.query session ~p,
                   Reference_steiner.weighted_brute (Bigraph.ugraph sub)
                     ~weight:(fun _ -> 1) ~terminals:local )
               with
               | Ok s, Some best ->
                 s.Minconn.method_used = licensed
                 && s.Minconn.optimal
                 && s.Minconn.profile = profile
                 && Tree.verify u ~terminals:p s.Minconn.tree
                 && Tree.node_count s.Minconn.tree = best
               | _ -> false)
             (Traverse.components u)
      in
      ok
      && List.for_all
           (fun r -> List.mem r !rungs)
           Minconn.[ Used_forest; Used_algorithm2; Used_exact_dp ])

let prop_relations_equal =
  QCheck2.Test.make ~count:150
    ~name:"Session.query_relations = Minconn.solve_min_relations" seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let draw =
        if Workloads.Rng.bool rng 0.5 then fun rng ->
          Workloads.Gen_bipartite.chordal_62 rng
            ~n_right:(2 + Workloads.Rng.int rng 4)
            ~max_size:4
        else fun rng ->
          Workloads.Gen_bipartite.alpha_bipartite rng
            ~n_right:(2 + Workloads.Rng.int rng 4)
            ~max_size:4
      in
      let g = disjoint_union draw rng in
      let p =
        (* Mostly one component; sometimes an unfiltered pick that may
           straddle two, so the typed errors are compared too. *)
        if Workloads.Rng.bool rng 0.8 then component_terminals rng g
        else
          Iset.of_list
            (Workloads.Rng.sample rng
               (1 + Workloads.Rng.int rng 4)
               (List.init (Bigraph.n g) Fun.id))
      in
      let session = Minconn.Session.create (Minconn.Compiled.compile g) in
      match
        ( Minconn.solve_min_relations g ~p,
          Minconn.Session.query_relations session ~p )
      with
      | Ok a, Ok b ->
        same_tree a.Algorithm1.tree b.Algorithm1.tree
        && a.Algorithm1.v2_count = b.Algorithm1.v2_count
        && a.Algorithm1.elimination_order = b.Algorithm1.elimination_order
      | Error ea, Error eb -> ea = eb
      | Ok _, Error _ | Error _, Ok _ -> false)

(* ------------------------------------------- deterministic ladder *)

(* fig2 with fuel 2 is the canonical degradation scenario: both paths
   must abandon the exact DP for the same reason and return the same
   MST-approximate answer (degrade on), or the same typed exhaustion
   (degrade off). *)
let test_degraded_equivalence () =
  let g = Minconn.Figures.fig2.Minconn.Figures.graph in
  let u = Bigraph.ugraph g in
  let p = Iset.of_list [ 0; 2 ] in
  let session = Minconn.Session.create (Minconn.Compiled.compile g) in
  let one =
    Minconn.solve ~budget:(Minconn.Budget.make ~fuel:2 ()) g ~p
  in
  let ses =
    Minconn.Session.query
      ~make_budget:(fun () -> Minconn.Budget.make ~fuel:2 ())
      session ~p
  in
  check "degraded answers equal" true (result_equal u ~p one ses);
  (match ses with
  | Ok s ->
    check "session answer is degraded" true
      (Minconn.Degrade.degraded s.Minconn.provenance)
  | Error _ -> Alcotest.fail "fuel 2 with degradation should still answer");
  let one_nd =
    Minconn.solve
      ~budget:(Minconn.Budget.make ~fuel:2 ())
      ~degrade:false g ~p
  in
  let ses_nd =
    Minconn.Session.query
      ~make_budget:(fun () -> Minconn.Budget.make ~fuel:2 ())
      ~degrade:false session ~p
  in
  check "exhaustion equal under --no-degrade" true
    (result_equal u ~p one_nd ses_nd);
  check "no-degrade surfaces the exhaustion" true
    (match ses_nd with Error (Minconn.Errors.Budget_exhausted _) -> true | _ -> false)

(* Errors stay in batch position: a bad query must not derail its
   neighbours or leak state into them. *)
let test_solve_many_positions () =
  let g = Minconn.Figures.fig3b.Minconn.Figures.graph in
  let ok_p = Iset.of_list [ 0; 1 ] in
  let batch =
    [ ok_p; Iset.empty; Iset.singleton 999; ok_p ]
  in
  let session = Minconn.Session.create (Minconn.Compiled.compile g) in
  match Minconn.Session.solve_many session batch with
  | [ Ok a; Error (Minconn.Errors.Invalid_instance _);
      Error (Minconn.Errors.Invalid_instance _); Ok b ] ->
    check "same query, same answer around failures" true (sol_equal a b)
  | _ -> Alcotest.fail "batch results out of position"

(* --------------------------------------------------- memoization *)

let test_schema_memoized () =
  let s =
    Datamodel.Schema.make
      [ ("R1", [ "a"; "b" ]); ("R2", [ "b"; "c" ]); ("R3", [ "c"; "d" ]) ]
  in
  check "compiled handle is cached" true
    (Datamodel.Schema.compiled s == Datamodel.Schema.compiled s);
  check "bigraph served from the handle" true
    (Datamodel.Schema.to_bigraph s == Datamodel.Schema.to_bigraph s);
  check "memoized profile = direct classification" true
    (Datamodel.Schema.profile s
    = Classify.profile (Datamodel.Schema.to_bigraph s))

let test_layered_memoized () =
  let l =
    Datamodel.Layered.make
      ~levels:[ [ "a"; "b"; "c" ]; [ "X"; "Y" ]; [ "T" ] ]
      ~definitions:
        [ ("X", [ "a"; "b" ]); ("Y", [ "b"; "c" ]); ("T", [ "X"; "Y" ]) ]
  in
  check "compiled handle is cached" true
    (Datamodel.Layered.compiled l == Datamodel.Layered.compiled l);
  check "memoized profile = direct classification" true
    (Datamodel.Layered.profile l
    = Classify.profile (Datamodel.Layered.to_bigraph l))

(* engine.compiles / engine.queries counters: one compile serves the
   whole batch. *)
let test_engine_counters () =
  let metrics = Observe.Metrics.make () in
  let g = Minconn.Figures.fig3b.Minconn.Figures.graph in
  let compiled = Minconn.Compiled.compile ~metrics g in
  let session = Minconn.Session.create ~metrics compiled in
  let p = Iset.of_list [ 0; 1 ] in
  ignore (Minconn.Session.solve_many session [ p; p; p ]);
  let count name = List.assoc name (Observe.Metrics.counters metrics) in
  check_int "one compile for the batch" 1 (count "engine.compiles");
  check_int "three queries recorded" 3 (count "engine.queries")

(* The plan keeps no Algorithm 1 state: compiling a many-component
   alpha schema records no [algorithm1.*] span, and a relations query
   derives W once, on its own component's slice. *)
let test_compile_runs_no_algorithm1 () =
  let inst =
    Workloads.Gen_scale.make Workloads.Gen_scale.Alpha ~target_n:200 ~seed:11
  in
  let g = Workloads.Gen_scale.to_bigraph inst in
  let names tr =
    List.map (fun s -> s.Observe.Trace.name) (Observe.Trace.spans tr)
  in
  let count name tr =
    List.length (List.filter (String.equal name) (names tr))
  in
  let compile_trace = Observe.Trace.make () in
  let compiled = Minconn.Compiled.compile ~trace:compile_trace g in
  check "several components" true (Minconn.Compiled.n_components compiled > 1);
  check "compile records no algorithm1 span" false
    (List.exists
       (fun n -> String.length n >= 10 && String.sub n 0 10 = "algorithm1")
       (names compile_trace));
  let query_trace = Observe.Trace.make () in
  let session = Minconn.Session.create ~trace:query_trace compiled in
  let p = Workloads.Gen_scale.block_terminals inst ~block:1 ~k:3 in
  check "relations query answers" true
    (Result.is_ok (Minconn.Session.query_relations session ~p));
  check_int "one join_tree span per relations query" 1
    (count "algorithm1.join_tree" query_trace)

(* The profile memo: compile classifies nothing; the first query in a
   component records its one [classify] span, a repeat query in it
   none; [Compiled.profile] fills the rest and equals the whole
   graph's classification. *)
let test_profile_memo () =
  let inst =
    Workloads.Gen_scale.make Workloads.Gen_scale.Chordal62 ~target_n:300
      ~seed:3
  in
  let g = Workloads.Gen_scale.to_bigraph inst in
  let count tr =
    List.length
      (List.filter
         (fun s -> s.Observe.Trace.name = "classify")
         (Observe.Trace.spans tr))
  in
  let compile_trace = Observe.Trace.make () in
  let plan = Minconn.Compiled.compile ~trace:compile_trace g in
  let n = Minconn.Compiled.n_components plan in
  check "several components" true (n > 2);
  check_int "compile records no classify span" 0 (count compile_trace);
  let filled () =
    Array.fold_left
      (fun acc c ->
        if Option.is_some (Atomic.get c.Minconn.Compiled.cprofile) then acc + 1
        else acc)
      0 plan.Minconn.Compiled.components
  in
  check_int "compile fills no memo" 0 (filled ());
  let p = Workloads.Gen_scale.block_terminals inst ~block:1 ~k:3 in
  let query () =
    let tr = Observe.Trace.make () in
    (match Minconn.Session.query (Minconn.Session.create ~trace:tr plan) ~p with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Minconn.Errors.to_string e));
    count tr
  in
  check_int "first query: one classify span" 1 (query ());
  check_int "first query fills its component's memo only" 1 (filled ());
  check_int "repeat query: no classify span" 0 (query ());
  check "Compiled.profile = Classify.profile" true
    (Minconn.Compiled.profile plan = Classify.profile g);
  check_int "Compiled.profile fills every memo" n (filled ())

(* Two domains racing first queries over every component of one fresh
   plan must both answer, and leave every memo holding its component's
   profile: the memo is written idempotently, never forced as a lazy
   value (which raises [Undefined] in the second forcer). *)
let test_profile_memo_races () =
  let rng = Workloads.Rng.make ~seed:17 in
  let g = mixed_schema rng in
  let plan = Minconn.Compiled.compile g in
  let terminals =
    List.map
      (fun c -> Iset.singleton (Iset.min_elt c))
      (Traverse.components (Bigraph.ugraph g))
  in
  let run () =
    let session = Minconn.Session.create plan in
    List.for_all
      (fun p -> Result.is_ok (Minconn.Session.query session ~p))
      terminals
  in
  let other = Domain.spawn run in
  let here = run () in
  check "both domains answer" true (here && Domain.join other);
  check "every memo holds its component's profile" true
    (Array.for_all
       (fun c ->
         Atomic.get c.Minconn.Compiled.cprofile
         = Some
             (Classify.profile_connected
                (fst (Bigraph.induced g c.Minconn.Compiled.nodes))))
       plan.Minconn.Compiled.components)

let qcheck_cases =
  [
    prop_session_equal_gnp;
    prop_session_equal_chordal62;
    prop_session_equal_under_fuel;
    prop_sliced_ladder_equals_whole_graph;
    prop_relations_equal;
    prop_seeded_algorithm2_exact_connected;
    prop_layout_equals_reference;
    prop_mixed_class_rungs;
    prop_single_component_equals_sliced;
  ]

let () =
  Alcotest.run "engine"
    [
      ("equivalence", List.map QCheck_alcotest.to_alcotest qcheck_cases);
      ( "ladder",
        [
          Alcotest.test_case "degraded paths equal" `Quick
            test_degraded_equivalence;
          Alcotest.test_case "batch error positions" `Quick
            test_solve_many_positions;
        ] );
      ( "memoization",
        [
          Alcotest.test_case "schema compiled once" `Quick test_schema_memoized;
          Alcotest.test_case "layered compiled once" `Quick
            test_layered_memoized;
          Alcotest.test_case "engine counters" `Quick test_engine_counters;
          Alcotest.test_case "compile runs no Algorithm 1" `Quick
            test_compile_runs_no_algorithm1;
          Alcotest.test_case "profile memo filled by first query" `Quick
            test_profile_memo;
          Alcotest.test_case "profile memo under racing domains" `Quick
            test_profile_memo_races;
        ] );
    ]
