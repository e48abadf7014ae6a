(* Incremental schema evolution: [Compiled.apply_delta] must be
   indistinguishable — profile, component structure, component
   profiles, and query answers — from throwing the plan away
   and recompiling the mutated schema from scratch. Comparisons are
   canonical (Iset.equal, order lists, rendered values), never
   polymorphic [=] on sets: equal sets built by different operation
   orders need not share AVL shape. *)

open Graphs
open Bipartite
open Steiner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let seed_gen = QCheck2.Gen.int_range 0 1_000_000

module Compiled = Minconn.Compiled
module Session = Minconn.Session

(* ------------------------------------------------ canonical equality *)

(* Memos are compared once [Compiled.profile] has filled them on both
   sides: a patched plan may carry memos over from its parent while a
   fresh compile starts with none. *)
let component_equal (a : Compiled.component) (b : Compiled.component) =
  Iset.equal a.Compiled.nodes b.Compiled.nodes
  && Atomic.get a.Compiled.cprofile = Atomic.get b.Compiled.cprofile

let plan_equal (a : Compiled.t) (b : Compiled.t) =
  Bigraph.equal (Compiled.graph a) (Compiled.graph b)
  && Compiled.profile a = Compiled.profile b
  && Compiled.profile a = Classify.profile (Compiled.graph a)
  && a.Compiled.comp_id = b.Compiled.comp_id
  && Array.length a.Compiled.components = Array.length b.Compiled.components
  && Array.for_all2 component_equal a.Compiled.components
       b.Compiled.components

let sol_equal (a : Minconn.solution) (b : Minconn.solution) =
  Iset.equal a.Minconn.tree.Tree.nodes b.Minconn.tree.Tree.nodes
  && a.Minconn.tree.Tree.edges = b.Minconn.tree.Tree.edges
  && a.Minconn.method_used = b.Minconn.method_used
  && a.Minconn.optimal = b.Minconn.optimal
  && a.Minconn.profile = b.Minconn.profile
  && a.Minconn.provenance = b.Minconn.provenance

let result_equal a b =
  match (a, b) with
  | Ok sa, Ok sb -> sol_equal sa sb
  | Error ea, Error eb -> ea = eb
  | Ok _, Error _ | Error _, Ok _ -> false

(* Answers on both plans for a handful of random terminal sets,
   including the occasional pathological empty set. *)
let answers_agree rng patched fresh =
  let g = Compiled.graph fresh in
  let sp = Session.create patched and sf = Session.create fresh in
  List.for_all
    (fun p ->
      result_equal (Session.query sp ~p) (Session.query sf ~p)
      &&
      match (Session.query_relations sp ~p, Session.query_relations sf ~p) with
      | Ok a, Ok b ->
        Iset.equal a.Algorithm1.tree.Tree.nodes b.Algorithm1.tree.Tree.nodes
        && a.Algorithm1.v2_count = b.Algorithm1.v2_count
        && a.Algorithm1.elimination_order = b.Algorithm1.elimination_order
      | Error ea, Error eb -> ea = eb
      | Ok _, Error _ | Error _, Ok _ -> false)
    (List.init 4 (fun _ ->
         if Workloads.Rng.bool rng 0.1 then Iset.empty
         else
           Workloads.Gen_bipartite.random_terminals rng g
             ~k:(1 + Workloads.Rng.int rng 3)))

(* --------------------------------------------------- delta generator *)

(* A random, mostly-valid delta against the current graph shape:
   insertions and deletions of edges (sometimes no-ops), appended
   relations, and removals of both the last relation (incremental
   path) and interior relations (full-recompile fallback). *)
let random_op rng g =
  let nl = Bigraph.nl g and nr = Bigraph.nr g in
  let pick_left () = Workloads.Rng.int rng (max 1 nl) in
  let pick_right () = Workloads.Rng.int rng (max 1 nr) in
  if nl = 0 || nr = 0 then
    Minconn.Delta.Add_relation
      (Iset.of_list (List.init (min 2 nl) (fun _ -> pick_left ())))
  else
    match Workloads.Rng.int rng 6 with
    | 0 | 1 -> Minconn.Delta.Add_edge (pick_left (), pick_right ())
    | 2 -> (
      (* bias towards removing a real edge so splits actually happen *)
      match Bigraph.edges g with
      | [] -> Minconn.Delta.Remove_edge (pick_left (), pick_right ())
      | edges ->
        let i, j = List.nth edges (Workloads.Rng.int rng (List.length edges)) in
        Minconn.Delta.Remove_edge (i, j))
    | 3 ->
      Minconn.Delta.Add_relation
        (Iset.of_list
           (List.init (Workloads.Rng.int rng 4) (fun _ -> pick_left ())))
    | 4 -> Minconn.Delta.Remove_relation (nr - 1)
    | _ -> Minconn.Delta.Remove_relation (pick_right ())

let random_ops rng g n =
  let rec go g acc n =
    if n = 0 then List.rev acc
    else
      let op = random_op rng g in
      match Minconn.Delta.apply g op with
      | Ok g' -> go g' (op :: acc) (n - 1)
      | Error _ -> go g acc n
  in
  go g [] n

(* ------------------------------------------------------- properties *)

(* The keystone the whole delta engine rests on: the classification
   profile decomposes exactly over connected components. The
   right-hand side is the whole-graph reference classifier, not
   [Classify.profile], which is itself defined by this combine. *)
let prop_combine_is_whole =
  QCheck2.Test.make ~count:150
    ~name:"Classify.combine over components = whole-graph profile" seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let nl = 1 + Workloads.Rng.int rng 8
      and nr = 1 + Workloads.Rng.int rng 8 in
      let g = Workloads.Gen_bipartite.gnp rng ~nl ~nr ~p:0.2 in
      let comps = Traverse.components (Bigraph.ugraph g) in
      let profiles =
        Array.of_list
          (List.map
             (fun c -> Classify.profile_connected (fst (Bigraph.induced g c)))
             comps)
      in
      Classify.combine profiles = Reference_classify.reference_profile g)

let differential seed =
  let rng = Workloads.Rng.make ~seed in
  let nl = 2 + Workloads.Rng.int rng 7
  and nr = 2 + Workloads.Rng.int rng 7 in
  let g0 = Workloads.Gen_bipartite.gnp rng ~nl ~nr ~p:0.25 in
  let ops = random_ops rng g0 (1 + Workloads.Rng.int rng 6) in
  let base = Compiled.compile g0 in
  (* Half the time the base plan is fully classified first, so the
     patched plan carries memos over from it. *)
  if Workloads.Rng.bool rng 0.5 then ignore (Compiled.profile base);
  match Compiled.apply_deltas base ops with
  | Error msg -> QCheck2.Test.fail_reportf "apply_deltas failed: %s" msg
  | Ok (patched, stats) -> (
    match Minconn.Delta.apply_all g0 ops with
    | Error msg -> QCheck2.Test.fail_reportf "apply_all failed: %s" msg
    | Ok g' ->
      let fresh = Compiled.compile g' in
      let stats_ok =
        List.for_all
          (fun (s : Compiled.delta_stats) ->
            if s.Compiled.noop then
              s.Compiled.recompiled = [] && not s.Compiled.fallback
            else true)
          stats
      in
      (* every step accounts for all components of its output plan *)
      let accounting_ok =
        match List.rev stats with
        | [] -> true
        | last :: _ ->
          last.Compiled.noop
          || List.length last.Compiled.recompiled + last.Compiled.reused
             = Array.length patched.Compiled.components
      in
      if not (plan_equal patched fresh) then
        QCheck2.Test.fail_reportf "patched plan differs from fresh compile"
      else if not stats_ok then
        QCheck2.Test.fail_reportf "no-op delta reported recompilation"
      else if not accounting_ok then
        QCheck2.Test.fail_reportf "delta stats do not cover the plan"
      else answers_agree rng patched fresh)

let prop_differential_gnp =
  QCheck2.Test.make ~count:250
    ~name:"apply_delta* = recompile-from-scratch (random delta sequences)"
    seed_gen differential

let prop_differential_structured =
  QCheck2.Test.make ~count:150
    ~name:"apply_delta* = recompile-from-scratch ((6,2)-chordal base)"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let n_right = 2 + Workloads.Rng.int rng 5 in
      let g0 = Workloads.Gen_bipartite.chordal_62 rng ~n_right ~max_size:4 in
      let ops = random_ops rng g0 (1 + Workloads.Rng.int rng 4) in
      let base = Compiled.compile g0 in
      match (Compiled.apply_deltas base ops, Minconn.Delta.apply_all g0 ops) with
      | Ok (patched, _), Ok g' ->
        let fresh = Compiled.compile g' in
        plan_equal patched fresh && answers_agree rng patched fresh
      | Error msg, _ | _, Error msg ->
        QCheck2.Test.fail_reportf "delta application failed: %s" msg)

(* ------------------------------------------- deterministic edge cases *)

(* fig3b-style path:  A–r0, B–r0, B–r1  (one component).  A–r0 is a
   cut edge: deleting it must split the component in two, and the
   patched plan must match the fresh compile of the smaller schema. *)
let test_cut_edge_split () =
  let g = Bigraph.of_edges ~nl:2 ~nr:2 [ (0, 0); (1, 0); (1, 1) ] in
  let base = Compiled.compile g in
  check_int "one component before the cut" 1 (Compiled.n_components base);
  match Compiled.apply_delta base (Minconn.Delta.Remove_edge (0, 0)) with
  | Error msg -> Alcotest.fail msg
  | Ok (patched, stats) ->
    check_int "cut splits into two components" 2
      (Compiled.n_components patched);
    check "split recompiled both pieces" true
      (List.length stats.Compiled.recompiled = 2);
    check "nothing reused across the split" true (stats.Compiled.reused = 0);
    check "not a fallback" true (not stats.Compiled.fallback);
    let fresh =
      Compiled.compile (Bigraph.of_edges ~nl:2 ~nr:2 [ (1, 0); (1, 1) ])
    in
    check "patched = fresh compile" true (plan_equal patched fresh)

(* Merge in the presence of a bystander component: the bystander's
   node set and profile memo must be reused, the merged component
   rebuilt unclassified, and the global profile re-derived — all
   identical to a fresh compile. *)
let test_merge_reuses_bystander () =
  (* components: {A,r0}, {B,r1}, {C,r2}; merge the first two *)
  let g = Bigraph.of_edges ~nl:3 ~nr:3 [ (0, 0); (1, 1); (2, 2) ] in
  let base = Compiled.compile g in
  check_int "three components" 3 (Compiled.n_components base);
  ignore (Compiled.profile base : Classify.profile);
  match Compiled.apply_delta base (Minconn.Delta.Add_edge (0, 1)) with
  | Error msg -> Alcotest.fail msg
  | Ok (patched, stats) ->
    check_int "merge leaves two components" 2 (Compiled.n_components patched);
    check "exactly one component rebuilt" true
      (stats.Compiled.recompiled = [ 0 ]);
    check_int "bystander reused" 1 stats.Compiled.reused;
    let memo k = Atomic.get patched.Compiled.components.(k).Compiled.cprofile in
    check "rebuilt component starts unclassified" true (memo 0 = None);
    check "bystander keeps its memo" true
      (patched.Compiled.components.(1).Compiled.cprofile
      == base.Compiled.components.(2).Compiled.cprofile
      && memo 1 <> None);
    let fresh =
      Compiled.compile
        (Bigraph.of_edges ~nl:3 ~nr:3 [ (0, 0); (0, 1); (1, 1); (2, 2) ])
    in
    check "patched = fresh compile" true (plan_equal patched fresh)

(* Two acyclic components merged and then driven cyclic. A single
   cross-component insertion alone can never break an acyclicity
   degree — the new edge is a bridge of the incidence graph, and every
   degree is characterised by closed cycle structures that cannot
   cross a bridge (exhaustively confirmed over all ≤4×4 schemas). So
   the scenario takes two deltas: the first merges two acyclic
   components (class preserved, and asserted so), the second closes
   the 6-cycle inside the merged component and must downgrade the
   whole profile exactly as a fresh classification would. *)
let test_acyclic_merge_goes_cyclic () =
  (* path a–r0–b–r1–c (H¹ = {ab, bc}, γ-acyclic) plus isolated r2 *)
  let g =
    Bigraph.of_edges ~nl:3 ~nr:3 [ (0, 0); (1, 0); (1, 1); (2, 1) ]
  in
  let base = Compiled.compile g in
  check_int "two components before the merge" 2 (Compiled.n_components base);
  check "both components are (6,2)-chordal" true
    ((Compiled.profile base).Classify.chordal_62
    && Array.for_all
         (fun c ->
           match Atomic.get c.Compiled.cprofile with
           | Some p -> p.Classify.chordal_62
           | None -> false)
         base.Compiled.components);
  match Compiled.apply_delta base (Minconn.Delta.Add_edge (2, 2)) with
  | Error msg -> Alcotest.fail msg
  | Ok (merged, s1) ->
    check_int "merged into one component" 1 (Compiled.n_components merged);
    check "merge was incremental" true (not s1.Compiled.fallback);
    check "a bridge merge preserves the class" true
      (Compiled.profile merged).Classify.chordal_62;
    (match Compiled.apply_delta merged (Minconn.Delta.Add_edge (0, 2)) with
    | Error msg -> Alcotest.fail msg
    | Ok (cyclic, s2) ->
      check "closing the 6-cycle stays incremental" true
        (not s2.Compiled.fallback);
      check "merged component went cyclic" true
        (not (Compiled.profile cyclic).Classify.chordal_62);
      check "H1 is now alpha-cyclic (triangle)" true
        (not (Compiled.profile cyclic).Classify.alpha_h1);
      let fresh =
        Compiled.compile
          (Bigraph.of_edges ~nl:3 ~nr:3
             [ (0, 0); (1, 0); (1, 1); (2, 1); (2, 2); (0, 2) ])
      in
      check "patched = fresh compile" true (plan_equal cyclic fresh))

(* Re-adding a present edge and removing an absent one are no-ops:
   the plan must be returned physically unchanged. *)
let test_noop_deltas () =
  let g = Bigraph.of_edges ~nl:2 ~nr:2 [ (0, 0); (1, 0); (1, 1) ] in
  let base = Compiled.compile g in
  List.iter
    (fun op ->
      match Compiled.apply_delta base op with
      | Error msg -> Alcotest.fail msg
      | Ok (t', stats) ->
        check "no-op returns the plan physically unchanged" true (t' == base);
        check "no-op reported" true stats.Compiled.noop;
        check "no component dirtied" true (stats.Compiled.recompiled = []))
    [ Minconn.Delta.Add_edge (0, 0); Minconn.Delta.Remove_edge (0, 1) ]

(* Interior relation removal shifts indices: conservative fallback. *)
let test_interior_removal_falls_back () =
  let g = Bigraph.of_edges ~nl:3 ~nr:3 [ (0, 0); (1, 1); (2, 2) ] in
  let base = Compiled.compile g in
  match Compiled.apply_delta base (Minconn.Delta.Remove_relation 0) with
  | Error msg -> Alcotest.fail msg
  | Ok (patched, stats) ->
    check "interior removal is a fallback" true stats.Compiled.fallback;
    check_int "nothing reused" 0 stats.Compiled.reused;
    let fresh =
      Compiled.compile (Bigraph.of_edges ~nl:3 ~nr:2 [ (1, 0); (2, 1) ])
    in
    check "fallback = fresh compile" true (plan_equal patched fresh);
    (* last-index removal, by contrast, stays incremental *)
    (match Compiled.apply_delta base (Minconn.Delta.Remove_relation 2) with
    | Error msg -> Alcotest.fail msg
    | Ok (p2, s2) ->
      check "last-index removal is incremental" true (not s2.Compiled.fallback);
      check_int "two components reused" 2 s2.Compiled.reused;
      let fresh2 =
        Compiled.compile (Bigraph.of_edges ~nl:3 ~nr:2 [ (0, 0); (1, 1) ])
      in
      check "patched = fresh compile" true (plan_equal p2 fresh2))

(* Appending a relation never shifts an index and merges the attribute
   components; with no attributes it is a fresh isolated component. *)
let test_add_relation () =
  let g = Bigraph.of_edges ~nl:3 ~nr:2 [ (0, 0); (1, 1) ] in
  let base = Compiled.compile g in
  match
    Compiled.apply_delta base (Minconn.Delta.Add_relation (Iset.of_list [ 0; 1 ]))
  with
  | Error msg -> Alcotest.fail msg
  | Ok (patched, stats) ->
    let fresh =
      Compiled.compile
        (Bigraph.of_edges ~nl:3 ~nr:3 [ (0, 0); (0, 2); (1, 1); (1, 2) ])
    in
    check "patched = fresh compile" true (plan_equal patched fresh);
    check "bystander {C} reused" true (stats.Compiled.reused = 1);
    (match
       Compiled.apply_delta base (Minconn.Delta.Add_relation Iset.empty)
     with
    | Error msg -> Alcotest.fail msg
    | Ok (p2, s2) ->
      check "attribute-free relation reuses every component" true
        (s2.Compiled.reused = Array.length base.Compiled.components);
      let fresh2 =
        Compiled.compile (Bigraph.of_edges ~nl:3 ~nr:3 [ (0, 0); (1, 1) ])
      in
      check "patched = fresh compile" true (plan_equal p2 fresh2))

(* Out-of-range deltas are typed errors and leave the plan usable. *)
let test_invalid_deltas () =
  let g = Bigraph.of_edges ~nl:2 ~nr:2 [ (0, 0) ] in
  let base = Compiled.compile g in
  List.iter
    (fun op ->
      match Compiled.apply_delta base op with
      | Ok _ -> Alcotest.fail "out-of-range delta accepted"
      | Error _ -> ())
    [
      Minconn.Delta.Add_edge (2, 0);
      Minconn.Delta.Add_edge (0, 5);
      Minconn.Delta.Remove_edge (-1, 0);
      Minconn.Delta.Remove_relation 2;
      Minconn.Delta.Add_relation (Iset.singleton 9);
    ]

(* Session.with_plan: physical no-op on the same plan, correct answers
   on a swapped plan. *)
let test_session_with_plan () =
  let g = Bigraph.of_edges ~nl:2 ~nr:2 [ (0, 0); (1, 0); (1, 1) ] in
  let base = Compiled.compile g in
  let s = Session.create base in
  check "same plan: same session" true (Session.with_plan s base == s);
  match Compiled.apply_delta base (Minconn.Delta.Add_relation (Iset.of_list [ 0 ]))
  with
  | Error msg -> Alcotest.fail msg
  | Ok (patched, _) ->
    let s' = Session.with_plan s patched in
    check "swapped session reads the new plan" true
      (Session.compiled s' == patched);
    let fresh_sess = Session.create patched in
    let p = Iset.of_list [ 0; 1 ] in
    check "swapped session answers like a fresh one" true
      (result_equal (Session.query s' ~p) (Session.query fresh_sess ~p))

(* The served and [evolve] path applies each op once, in the delta
   parser, and patches the plan around the graphs it produced
   ([Compiled.patch_all]). The evolved schema's graph must then be the
   patched plan's graph physically (one graph per served state), the
   plan must equal a fresh compile, the per-delta stats must match the
   engine's own [apply_deltas], and the parser's evolved name index
   must resolve every name as a fresh index does. The random ops are
   written out as a delta file, relations added as [x0], [x1], .... *)
let prop_apply_once =
  QCheck2.Test.make ~count:200
    ~name:"parser steps + patch_all: one graph, = fresh compile" seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let nl = 2 + Workloads.Rng.int rng 7
      and nr = 2 + Workloads.Rng.int rng 7 in
      let g0 = Workloads.Gen_bipartite.gnp rng ~nl ~nr ~p:0.25 in
      let ops = random_ops rng g0 (1 + Workloads.Rng.int rng 6) in
      let nb =
        {
          Mc_io.Parse.graph = g0;
          left_names = Array.init nl (Printf.sprintf "a%d");
          right_names = Array.init nr (Printf.sprintf "r%d");
        }
      in
      let rights = ref (Array.to_list nb.Mc_io.Parse.right_names) in
      let fresh_names = ref 0 in
      let line op =
        let a i = Printf.sprintf "a%d" i and r j = List.nth !rights j in
        match op with
        | Minconn.Delta.Add_edge (i, j) -> Printf.sprintf "+edge %s %s" (a i) (r j)
        | Minconn.Delta.Remove_edge (i, j) ->
          Printf.sprintf "-edge %s %s" (a i) (r j)
        | Minconn.Delta.Add_relation attrs ->
          let x = Printf.sprintf "x%d" !fresh_names in
          incr fresh_names;
          rights := !rights @ [ x ];
          String.concat " "
            ("+relation" :: x :: List.map a (Iset.elements attrs))
        | Minconn.Delta.Remove_relation j ->
          let name = r j in
          rights := List.filteri (fun k _ -> k <> j) !rights;
          "-relation " ^ name
      in
      let text = String.concat "\n" ("deltas" :: List.map line ops) ^ "\n" in
      let base = Compiled.compile g0 in
      if Workloads.Rng.bool rng 0.5 then ignore (Compiled.profile base);
      match
        ( Mc_io.Parse.delta_steps_of_string ~names:(Mc_io.Parse.index nb) nb text,
          Compiled.apply_deltas base ops )
      with
      | Error e, _ ->
        QCheck2.Test.fail_reportf "%s: %a" text Mc_io.Parse.pp_error e
      | _, Error msg -> QCheck2.Test.fail_reportf "apply_deltas: %s" msg
      | Ok (steps, evolved, names), Ok (_, engine_stats) ->
        let patched, stats = Compiled.patch_all base steps in
        let all_names =
          Array.to_list evolved.Mc_io.Parse.left_names
          @ Array.to_list evolved.Mc_io.Parse.right_names
        in
        let resolves_as_fresh =
          List.for_all
            (fun name ->
              Result.equal ~ok:Iset.equal ~error:String.equal
                (Mc_io.Parse.resolve names [ name ])
                (Mc_io.Parse.resolve (Mc_io.Parse.index evolved) [ name ]))
            ("nowhere" :: all_names)
        in
        (* Ops hold sets, so they compare by their rendering. *)
        let canonical (s : Compiled.delta_stats) =
          ( Minconn.Delta.to_string s.Compiled.op,
            s.Compiled.noop,
            s.Compiled.fallback,
            s.Compiled.recompiled,
            s.Compiled.reused )
        in
        if
          List.map (fun (op, _) -> Minconn.Delta.to_string op) steps
          <> List.map Minconn.Delta.to_string ops
        then QCheck2.Test.fail_report "the parser read other ops"
        else if Compiled.graph patched != evolved.Mc_io.Parse.graph then
          QCheck2.Test.fail_report "schema and plan hold different graphs"
        else if List.map canonical stats <> List.map canonical engine_stats
        then
          QCheck2.Test.fail_report "patch_all stats differ from apply_deltas"
        else if not resolves_as_fresh then
          QCheck2.Test.fail_report "the evolved index resolves a name wrong"
        else plan_equal patched (Compiled.compile evolved.Mc_io.Parse.graph))

let qcheck_cases =
  [
    prop_combine_is_whole;
    prop_differential_gnp;
    prop_differential_structured;
    prop_apply_once;
  ]

let () =
  Alcotest.run "evolve"
    [
      ("differential", List.map QCheck_alcotest.to_alcotest qcheck_cases);
      ( "edge-cases",
        [
          Alcotest.test_case "cut edge splits" `Quick test_cut_edge_split;
          Alcotest.test_case "merge reuses bystander" `Quick
            test_merge_reuses_bystander;
          Alcotest.test_case "acyclic merge goes cyclic" `Quick
            test_acyclic_merge_goes_cyclic;
          Alcotest.test_case "no-op deltas" `Quick test_noop_deltas;
          Alcotest.test_case "interior removal fallback" `Quick
            test_interior_removal_falls_back;
          Alcotest.test_case "add relation" `Quick test_add_relation;
          Alcotest.test_case "invalid deltas" `Quick test_invalid_deltas;
          Alcotest.test_case "session plan swap" `Quick test_session_with_plan;
        ] );
    ]
