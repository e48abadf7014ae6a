(* Tests for the bipartite layer: the Definition 2 correspondence and,
   crucially, the Theorem 1 equivalences checked on random graphs by
   comparing the hypergraph-side fast recognisers against literal
   brute-force readings of Definitions 4 and 5. *)

open Graphs
open Hypergraphs
open Bipartite

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_bipartite_gen =
  QCheck2.Gen.(
    tup3 (int_range 1 5) (int_range 1 4) (int_range 0 100000)
    |> map (fun (nl, nr, seed) ->
           let rng = Workloads.Rng.make ~seed in
           Workloads.Gen_bipartite.gnp rng ~nl ~nr ~p:0.5))

(* Reject graphs with isolated right nodes: Definition 2's hypergraph
   is only defined there, and the paper's schemes never have empty
   relations. *)
let no_isolated_right g =
  List.for_all
    (fun j -> not (Iset.is_empty (Bigraph.left_neighbors g j)))
    (List.init (Bigraph.nr g) (fun j -> j))

(* ----------------------------------------------------------- Bigraph *)

let test_bigraph_basics () =
  let g = Bigraph.of_edges ~nl:2 ~nr:3 [ (0, 0); (0, 1); (1, 2) ] in
  check_int "nl" 2 (Bigraph.nl g);
  check_int "nr" 3 (Bigraph.nr g);
  check_int "m" 3 (Bigraph.m g);
  check "mem" true (Bigraph.mem_edge g 0 1);
  check "right neighbors of left 0" true
    (Iset.equal (Bigraph.right_neighbors g 0) (Iset.of_list [ 0; 1 ]));
  check "left neighbors of right 2" true
    (Iset.equal (Bigraph.left_neighbors g 2) (Iset.singleton 1));
  check "index round trip" true
    (Bigraph.node_of_index g (Bigraph.index g (Bigraph.R 1)) = Bigraph.R 1)

let test_flip () =
  let g = Bigraph.of_edges ~nl:2 ~nr:3 [ (0, 0); (1, 2) ] in
  let f = Bigraph.flip g in
  check_int "flip nl" 3 (Bigraph.nl f);
  check_int "flip nr" 2 (Bigraph.nr f);
  check "edges flipped" true (Bigraph.mem_edge f 0 0 && Bigraph.mem_edge f 2 1);
  check "double flip is identity" true (Bigraph.equal g (Bigraph.flip f))

let test_of_ugraph () =
  let c4 = Workloads.Gen_graph.cycle 4 in
  (match Bigraph.of_ugraph c4 with
  | Some (g, _) ->
    check_int "C4 splits 2+2" 2 (Bigraph.nl g);
    check_int "edges preserved" 4 (Bigraph.m g)
  | None -> Alcotest.fail "C4 is bipartite");
  check "odd cycle rejected" true
    (Bigraph.of_ugraph (Workloads.Gen_graph.cycle 5) = None)

(* -------------------------------------------------------- Correspond *)

let test_h1_h2 () =
  let g = Datamodel.Figures.fig2.Datamodel.Figures.graph in
  let h1 = Correspond.h1_exn g in
  check_int "H1 nodes = |V1|" (Bigraph.nl g) (Hypergraph.n_nodes h1);
  check_int "H1 edges = |V2|" (Bigraph.nr g) (Hypergraph.n_edges h1);
  check "round trip" true (Correspond.round_trip_h1 g);
  let g_iso = Bigraph.of_edges ~nl:1 ~nr:2 [ (0, 0) ] in
  check "isolated right node raises" true
    (try
       ignore (Correspond.h1_exn g_iso);
       false
     with Invalid_argument _ -> true);
  let h, mapping = Correspond.h1 g_iso in
  check_int "lenient h1 drops it" 1 (Hypergraph.n_edges h);
  check "mapping points at the surviving right node" true (mapping = [| 0 |])

(* ------------------------------------------------- Theorem 1, fixed *)

let test_41_is_forest () =
  let tree = Workloads.Gen_bipartite.forest (Workloads.Rng.make ~seed:3) ~n:12 in
  check "random tree is (4,1)-chordal" true (Mn_chordality.is_41_chordal tree);
  check "its H1 is Berge-acyclic" true
    (Berge.acyclic (fst (Correspond.h1 tree)))

let test_61_three_ways () =
  let cases =
    [
      Datamodel.Figures.fig3a.Datamodel.Figures.graph;
      Datamodel.Figures.fig3b.Datamodel.Figures.graph;
      Datamodel.Figures.fig3c.Datamodel.Figures.graph;
      Datamodel.Figures.fig5.Datamodel.Figures.graph;
      Datamodel.Figures.fig10.Datamodel.Figures.graph;
      Datamodel.Figures.fig11.Datamodel.Figures.graph;
    ]
  in
  List.iter
    (fun g ->
      let a = Mn_chordality.is_61_chordal g in
      let b = Mn_chordality.is_61_chordal_bisimplicial g in
      let c = Mn_chordality.is_mn_chordal_brute g ~m:6 ~n:1 in
      let d = Doubly_lex.is_61_chordal_doubly_lex g in
      check "beta = bisimplicial = brute = doubly-lex" true
        (a = b && b = c && c = d))
    cases

(* ---------------------------------------------------------- Classify *)

let test_profile_fig3b () =
  let p = Classify.profile Datamodel.Figures.fig3b.Datamodel.Figures.graph in
  check "62" true p.Classify.chordal_62;
  check "61 follows" true p.Classify.chordal_61;
  check "not 41" false p.Classify.chordal_41;
  check "consistent" true (Classify.theorem1_consistent p);
  check "recommend Algorithm 2" true
    (Classify.recommend p = Classify.Steiner_polynomial)

let test_profile_fig2 () =
  let p = Classify.profile Datamodel.Figures.fig2.Datamodel.Figures.graph in
  check "alpha_h1" true p.Classify.alpha_h1;
  check "not alpha_h2" false p.Classify.alpha_h2;
  check "recommend pseudo-Steiner V2" true
    (Classify.recommend p = Classify.Pseudo_steiner_v2)

let test_profile_gnp_cyclic () =
  let rng = Workloads.Rng.make ~seed:99 in
  (* Dense bipartite graphs are essentially never alpha-acyclic on
     either side; find one such and check the fallback. *)
  let rec find tries =
    if tries = 0 then None
    else
      let g = Workloads.Gen_bipartite.gnp rng ~nl:6 ~nr:6 ~p:0.5 in
      let p = Classify.profile g in
      if Classify.recommend p = Classify.Exact_search_only then Some p
      else find (tries - 1)
  in
  match find 50 with
  | Some p -> check "consistent profile" true (Classify.theorem1_consistent p)
  | None -> Alcotest.fail "expected some unstructured graph"

(* ------------------------------------------------------- properties *)

(* [Classify.profile] runs, per component, only the checks Theorem 1
   and Corollary 2 leave open; the reference runs all thirteen on the
   whole graph. Equal profiles pin both the component decomposition
   and every derived field. The degrees are also pinned against
   the umbrella recognizer on each witness hypergraph. *)
let matches_reference g =
  let p = Classify.profile g in
  let h1 = fst (Correspond.h1 g) and h2 = fst (Correspond.h2 g) in
  p = Reference_classify.reference_profile g
  && p.Classify.degree_h1 = Acyclicity.degree h1
  && p.Classify.degree_h2 = Acyclicity.degree h2

let test_profile_figures () =
  List.iter
    (fun (id, l) ->
      check ("fig " ^ id ^ " matches the reference") true
        (matches_reference l.Datamodel.Figures.graph))
    Datamodel.Figures.all_labeled;
  let empty = Bigraph.create ~nl:0 ~nr:0 in
  check "empty graph is neutral" true
    (Classify.profile empty = Classify.neutral && matches_reference empty)

(* One small connected graph per branch of the classify cascade, with
   the child spans [Classify.profile_connected] must record on it. *)
let cascade_cases =
  let e ~nl ~nr es = Bigraph.of_edges ~nl ~nr es in
  (* The chordless cycle of length 2k. *)
  let cycle k =
    e ~nl:k ~nr:k
      (List.concat (List.init k (fun i -> [ (i, i); ((i + 1) mod k, i) ])))
  in
  let gamma = [ "classify.chordal_62" ] in
  let beta = [ "classify.chordal_62"; "classify.chordal_61" ] in
  let side h checks = List.map (fun c -> "classify." ^ h ^ "." ^ c) checks in
  [
    ("isolated node", Bigraph.create ~nl:1 ~nr:0, []);
    ("path", e ~nl:3 ~nr:2 [ (0, 0); (1, 0); (1, 1); (2, 1) ], []);
    ( "(6,2) block",
      e ~nl:4 ~nr:2 [ (0, 0); (1, 0); (2, 0); (1, 1); (2, 1); (3, 1) ],
      gamma );
    ( "beta flower",
      Workloads.Gen_bipartite.chordal_61_flower (Workloads.Rng.make ~seed:1)
        ~petals:3,
      beta );
    (* 2-section a triangle: not α, chordal, so not conformal. *)
    ( "chordless 6-cycle",
      cycle 3,
      beta @ side "h1" [ "alpha"; "chordal" ] @ side "h2" [ "alpha"; "chordal" ]
    );
    (* 2-section C4: not α, not chordal; Gilmore finds it conformal. *)
    ( "chordless 8-cycle",
      cycle 4,
      beta
      @ side "h1" [ "alpha"; "chordal"; "conformal" ]
      @ side "h2" [ "alpha"; "chordal"; "conformal" ] );
    (* H¹ α; H² not α, chordal. *)
    ( "fig2",
      Datamodel.Figures.fig2.Datamodel.Figures.graph,
      beta @ side "h1" [ "alpha" ] @ side "h2" [ "alpha"; "chordal" ] );
  ]

let disjoint_union gs =
  let nl = List.fold_left (fun a g -> a + Bigraph.nl g) 0 gs in
  let nr = List.fold_left (fun a g -> a + Bigraph.nr g) 0 gs in
  Bigraph.of_edge_iter ~nl ~nr (fun add ->
      ignore
        (List.fold_left
           (fun (ol, orr) g ->
             Bigraph.iter_edges g (fun i j -> add (ol + i) (orr + j));
             (ol + Bigraph.nl g, orr + Bigraph.nr g))
           (0, 0) gs))

let names spans = List.map (fun s -> s.Observe.Trace.name) spans
let checks l = List.filter (String.starts_with ~prefix:"classify.") l

(* The checks the cascade leaves open on one connected graph, read off
   its reference profile: per side, α alone when it holds, else α and
   the 2-section, and Gilmore too when the 2-section is not chordal. *)
let expected_checks g =
  let p = Reference_classify.reference_profile g in
  let side h ~alpha ~chordal =
    List.map
      (fun c -> "classify." ^ h ^ "." ^ c)
      (if alpha then [ "alpha" ]
       else if chordal then [ "alpha"; "chordal" ]
       else [ "alpha"; "chordal"; "conformal" ])
  in
  if p.Classify.chordal_41 then []
  else if p.Classify.chordal_62 then [ "classify.chordal_62" ]
  else if p.Classify.chordal_61 then
    [ "classify.chordal_62"; "classify.chordal_61" ]
  else
    [ "classify.chordal_62"; "classify.chordal_61" ]
    @ side "h1" ~alpha:p.Classify.alpha_h1 ~chordal:p.Classify.v2_chordal
    @ side "h2" ~alpha:p.Classify.alpha_h2 ~chordal:p.Classify.v1_chordal

(* One ["classify"] span per call on the whole-graph path, none under
   compile, one per component under the first queries that land in
   the components and none under a repeat; none of the four checks the
   degree derivation replaced, and per component only the checks the cascade
   leaves open: none on a forest, [chordal_62] alone on a (6,2)-chordal
   component, [chordal_62] and [chordal_61] on a (6,1)-chordal one,
   else those two plus, per side, a prefix of α, 2-section chordality
   and Gilmore. The whole trace holds exactly the checks each
   component's reference profile leaves open. *)
let test_classify_spans () =
  let rng = Workloads.Rng.make ~seed:5 in
  let g =
    disjoint_union
      (Workloads.Gen_bipartite.gnp rng ~nl:8 ~nr:8 ~p:0.15
      :: List.map (fun (_, g, _) -> g) cascade_cases)
  in
  let comps = List.length (Traverse.components (Bigraph.ugraph g)) in
  check "several components" true (comps > List.length cascade_cases);
  let count name l = List.length (List.filter (String.equal name) l) in
  let removed l =
    List.exists
      (fun n -> List.mem n l)
      [
        "classify.h1.berge";
        "classify.h2.berge";
        "classify.h2.gamma";
        "classify.h2.beta";
      ]
  in
  let whole = Observe.Trace.make () in
  ignore (Classify.profile ~trace:whole g : Classify.profile);
  let l = names (Observe.Trace.spans whole) in
  check_int "whole graph: one classify span" 1 (count "classify" l);
  check "whole graph: no redundant checks" false (removed l);
  check "whole graph: exactly the open checks" true
    (List.sort compare (checks l)
    = List.sort compare
        (List.concat_map
           (fun nodes -> expected_checks (fst (Bigraph.induced g nodes)))
           (Traverse.components (Bigraph.ugraph g))));
  let compiled = Observe.Trace.make () in
  let plan = Minconn.Compiled.compile ~trace:compiled g in
  check_int "compile: no classify span" 0
    (count "classify" (names (Observe.Trace.spans compiled)));
  (* One single-terminal query per component, twice over. *)
  let query_all () =
    let tr = Observe.Trace.make () in
    let session = Minconn.Session.create ~trace:tr plan in
    List.iter
      (fun nodes ->
        match
          Minconn.Session.query session ~p:(Iset.singleton (Iset.min_elt nodes))
        with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Minconn.Errors.to_string e))
      (Traverse.components (Bigraph.ugraph g));
    Observe.Trace.spans tr
  in
  let spans = query_all () in
  let l = names spans in
  check_int "first queries: one classify span per component" comps
    (count "classify" l);
  check_int "repeat queries: no classify span" 0
    (count "classify" (names (query_all ())));
  check "queries: no redundant checks" false (removed l);
  check_int "queries and whole graph run the same checks"
    (List.length (checks (names (Observe.Trace.spans whole))))
    (List.length (checks l));
  let verdict s attr =
    Observe.Trace.find_attr s attr = Some (Observe.Trace.Bool true)
  in
  let kinds = ref [] in
  List.iter
    (fun s ->
      if s.Observe.Trace.name = "classify" then begin
        let children =
          List.sort compare
            (checks
               (names
                  (List.filter
                     (fun c -> c.Observe.Trace.parent = s.Observe.Trace.id)
                     spans)))
        in
        let on side =
          List.filter
            (String.starts_with ~prefix:("classify." ^ side ^ "."))
            children
        in
        let cascade_prefix side =
          List.mem (on side)
            (List.map
               (List.map (fun c -> "classify." ^ side ^ "." ^ c))
               [
                 [ "alpha" ];
                 [ "alpha"; "chordal" ];
                 [ "alpha"; "chordal"; "conformal" ];
               ])
        in
        if verdict s "chordal_41" then begin
          kinds := `Forest :: !kinds;
          check "forest: no checks" true (children = [])
        end
        else if verdict s "chordal_62" then begin
          kinds := `Gamma :: !kinds;
          check "(6,2): chordal_62 only" true
            (children = [ "classify.chordal_62" ])
        end
        else if verdict s "chordal_61" then begin
          kinds := `Beta :: !kinds;
          check "(6,1): chordal_62 and chordal_61 only" true
            (children = [ "classify.chordal_61"; "classify.chordal_62" ])
        end
        else begin
          kinds := `Other :: !kinds;
          check_int "other: chordal_62, chordal_61 and the sides"
            (2 + List.length (on "h1") + List.length (on "h2"))
            (List.length children);
          check "other: chordal_62 and chordal_61" true
            (List.mem "classify.chordal_62" children
            && List.mem "classify.chordal_61" children);
          check "other: each side a prefix of alpha, chordal, conformal" true
            (cascade_prefix "h1" && cascade_prefix "h2")
        end
      end)
    spans;
  List.iter
    (fun k -> check "every kind of component present" true (List.mem k !kinds))
    [ `Forest; `Gamma; `Beta; `Other ]

(* Sparse gnp leaves several components and isolated nodes on both
   sides. *)
let multi_component_gen =
  QCheck2.Gen.(
    tup4 (int_range 0 7) (int_range 0 7) (int_range 1 4) (int_range 0 100000)
    |> map (fun (nl, nr, tenths, seed) ->
           let rng = Workloads.Rng.make ~seed in
           Workloads.Gen_bipartite.gnp rng ~nl ~nr
             ~p:(float_of_int tenths /. 10.)))

let family_gen =
  QCheck2.Gen.(
    pair (int_range 0 3) (int_range 0 100000)
    |> map (fun (family, seed) ->
           let rng = Workloads.Rng.make ~seed in
           let size = 2 + Workloads.Rng.int rng 6 in
           match family with
           | 0 -> Workloads.Gen_bipartite.forest rng ~n:(2 * size)
           | 1 -> Workloads.Gen_bipartite.chordal_62 rng ~n_right:size ~max_size:4
           | 2 ->
             Workloads.Gen_bipartite.alpha_bipartite rng ~n_right:size
               ~max_size:4
           | _ -> Workloads.Gen_bipartite.chordal_61_flower rng ~petals:size))

(* ------------------------------------------------- edits vs rebuilds *)

(* Graphs from every Gen_bipartite family, padded with up to two
   isolated nodes at the top of each side. *)
let edit_gen =
  QCheck2.Gen.(
    triple
      (oneof [ multi_component_gen; family_gen ])
      (int_range 0 2) (int_range 0 2)
    |> map (fun (g, pad_l, pad_r) ->
           Bigraph.of_edges
             ~nl:(Bigraph.nl g + pad_l)
             ~nr:(Bigraph.nr g + pad_r)
             (Bigraph.edges g)))

let same_graph a b = Bigraph.equal a b && Bigraph.edges a = Bigraph.edges b

(* Each edit equals [Bigraph.of_edges] over the edited edge list: edge
   edits on every (left, right) pair, present or absent; a relation
   appended over no, one and every left; every relation removed in
   turn (first, interior and last); and the flip. *)
let edits_match_rebuild g =
  let nl = Bigraph.nl g and nr = Bigraph.nr g in
  let es = Bigraph.edges g in
  let lefts = List.init nl Fun.id and rights = List.init nr Fun.id in
  let pairs =
    List.concat_map (fun i -> List.map (fun j -> (i, j)) rights) lefts
  in
  List.for_all
    (fun (i, j) ->
      same_graph (Bigraph.add_edge g i j)
        (Bigraph.of_edges ~nl ~nr ((i, j) :: es))
      && same_graph
           (Bigraph.remove_edge g i j)
           (Bigraph.of_edges ~nl ~nr (List.filter (( <> ) (i, j)) es)))
    pairs
  && List.for_all
       (fun attrs ->
         same_graph
           (Bigraph.add_relation g attrs)
           (Bigraph.of_edges ~nl ~nr:(nr + 1)
              (es @ List.map (fun i -> (i, nr)) (Iset.elements attrs))))
       (Iset.empty :: Bigraph.left_nodes g :: List.map Iset.singleton lefts)
  && List.for_all
       (fun j ->
         same_graph
           (Bigraph.remove_relation g j)
           (Bigraph.of_edges ~nl ~nr:(nr - 1)
              (List.filter_map
                 (fun (i, j') ->
                   if j' = j then None
                   else Some (i, if j' > j then j' - 1 else j'))
                 es)))
       rights
  && same_graph (Bigraph.flip g)
       (Bigraph.of_edges ~nl:nr ~nr:nl (List.map (fun (i, j) -> (j, i)) es))

(* The CSR invariants an edit must keep, read through the public
   accessors: every row strictly ascending (sorted, no duplicate), every
   degree non-negative (the row offsets monotone), the entries summing
   to 2m, and every edge crossing the bipartition. *)
let csr_invariants g =
  let c = Bigraph.csr g and nl = Bigraph.nl g in
  let entries = ref 0 and ok = ref (Csr.n c = Bigraph.n g) in
  for u = 0 to Csr.n c - 1 do
    let row = Csr.sorted_neighbors c u in
    let d = Array.length row in
    entries := !entries + d;
    if Csr.degree c u <> d then ok := false;
    Array.iteri
      (fun k v ->
        if (k > 0 && row.(k - 1) >= v) || (u < nl) = (v < nl) then ok := false)
      row
  done;
  !ok && 2 * Csr.m c = !entries

(* A random chain of edits, each checked against a model edge list
   rebuilt by [Bigraph.of_edges], with the CSR invariants after every
   step. An op is drawn as (kind, x, y, mask) and read against the
   current sizes: kind 4 re-adds a present edge, which must return the
   graph itself; [-relation] picks any relation, interior ones
   included; a [+relation] mask of 0 appends a relation over no
   attribute. *)
let edit_chain_gen =
  QCheck2.Gen.(
    pair edit_gen
      (list_size (int_range 1 12)
         (quad (int_range 0 4) nat nat (int_range 0 15))))

let edit_chain_matches_model (g, steps) =
  let nl = Bigraph.nl g in
  let step (g, nr, es) (kind, x, y, mask) =
    let edge () = if nl = 0 || nr = 0 then None else Some (x mod nl, y mod nr) in
    let same_as g' nr' es' =
      let es' = List.sort_uniq compare es' in
      if
        csr_invariants g'
        && same_graph g' (Bigraph.of_edges ~nl ~nr:nr' es')
      then (g', nr', es')
      else QCheck2.Test.fail_reportf "edit %d diverged from the model" kind
    in
    let apply op =
      match Delta.apply g op with
      | Ok g' -> g'
      | Error msg -> QCheck2.Test.fail_reportf "%s" msg
    in
    match kind with
    | 0 -> (
      match edge () with
      | None -> (g, nr, es)
      | Some (i, j) ->
        let g' = apply (Delta.Add_edge (i, j)) in
        if List.mem (i, j) es && g' != g then
          QCheck2.Test.fail_report "a present +edge built a new graph"
        else same_as g' nr ((i, j) :: es))
    | 1 -> (
      match edge () with
      | None -> (g, nr, es)
      | Some (i, j) ->
        let g' = apply (Delta.Remove_edge (i, j)) in
        if (not (List.mem (i, j) es)) && g' != g then
          QCheck2.Test.fail_report "an absent -edge built a new graph"
        else same_as g' nr (List.filter (( <> ) (i, j)) es))
    | 2 ->
      let attrs =
        Iset.of_list (List.filter (fun i -> mask land (1 lsl (i mod 4)) <> 0)
                        (List.init nl Fun.id))
      in
      same_as
        (apply (Delta.Add_relation attrs))
        (nr + 1)
        (es @ List.map (fun i -> (i, nr)) (Iset.elements attrs))
    | 3 ->
      if nr = 0 then (g, nr, es)
      else
        let j = x mod nr in
        same_as
          (apply (Delta.Remove_relation j))
          (nr - 1)
          (List.filter_map
             (fun (i, j') ->
               if j' = j then None else Some (i, if j' > j then j' - 1 else j'))
             es)
    | _ -> (
      match es with
      | [] -> (g, nr, es)
      | _ ->
        let i, j = List.nth es (x mod List.length es) in
        if apply (Delta.Add_edge (i, j)) == g then (g, nr, es)
        else QCheck2.Test.fail_report "re-adding a present edge built a new graph")
  in
  ignore (List.fold_left step (g, Bigraph.nr g, Bigraph.edges g) steps);
  true

let qcheck_cases =
  [
    QCheck2.Test.make ~count:250
      ~name:"Theorem 1(i): (4,1)-brute = forest = Berge(H1)"
      small_bipartite_gen (fun g ->
        QCheck2.assume (no_isolated_right g);
        let brute = Mn_chordality.is_mn_chordal_brute g ~m:4 ~n:1 in
        brute = Mn_chordality.is_41_chordal g
        && brute = Berge.acyclic (Correspond.h1_exn g));
    QCheck2.Test.make ~count:250
      ~name:"Theorem 1(ii): (6,2)-brute = gamma(H1)" small_bipartite_gen
      (fun g ->
        QCheck2.assume (no_isolated_right g);
        Mn_chordality.is_mn_chordal_brute g ~m:6 ~n:2
        = Gamma.acyclic (Correspond.h1_exn g));
    QCheck2.Test.make ~count:250
      ~name:"Theorem 1(iii): (6,1)-brute = beta(H1)" small_bipartite_gen
      (fun g ->
        QCheck2.assume (no_isolated_right g);
        Mn_chordality.is_mn_chordal_brute g ~m:6 ~n:1
        = Beta.acyclic (Correspond.h1_exn g));
    QCheck2.Test.make ~count:250
      ~name:"doubly lexical ordering converges and verifies"
      small_bipartite_gen (fun g ->
        let o = Doubly_lex.ordering g in
        o.Doubly_lex.converged
        && Doubly_lex.is_doubly_lexical g ~rows:o.Doubly_lex.rows
             ~cols:o.Doubly_lex.cols);
    QCheck2.Test.make ~count:250
      ~name:"(6,1) via doubly lexical / gamma-free matrix agrees"
      small_bipartite_gen (fun g ->
        Doubly_lex.is_61_chordal_doubly_lex g
        = Mn_chordality.is_mn_chordal_brute g ~m:6 ~n:1);
    QCheck2.Test.make ~count:250
      ~name:"(6,1) via bisimplicial elimination agrees" small_bipartite_gen
      (fun g ->
        Mn_chordality.is_61_chordal_bisimplicial g
        = Mn_chordality.is_mn_chordal_brute g ~m:6 ~n:1);
    QCheck2.Test.make ~count:200
      ~name:"Definition 5 chordality brute = 2-section chordality"
      small_bipartite_gen (fun g ->
        QCheck2.assume (no_isolated_right g);
        Side_properties.chordal_brute g Bigraph.V2
        = Side_properties.chordal g Bigraph.V2);
    QCheck2.Test.make ~count:200
      ~name:"Definition 5 conformity brute = Gilmore on H1"
      small_bipartite_gen (fun g ->
        QCheck2.assume (no_isolated_right g);
        Side_properties.conformal_brute g Bigraph.V2
        = Side_properties.conformal g Bigraph.V2);
    QCheck2.Test.make ~count:150
      ~name:"Definition 5 brute checks agree on the V1 side too"
      small_bipartite_gen (fun g ->
        QCheck2.assume
          (List.for_all
             (fun i -> not (Iset.is_empty (Bigraph.right_neighbors g i)))
             (List.init (Bigraph.nl g) (fun i -> i)));
        Side_properties.chordal_brute g Bigraph.V1
        = Side_properties.chordal g Bigraph.V1
        && Side_properties.conformal_brute g Bigraph.V1
           = Side_properties.conformal g Bigraph.V1);
    QCheck2.Test.make ~count:200
      ~name:"Theorem 1(v): V2-chordal + V2-conformal = alpha(H1)"
      small_bipartite_gen (fun g ->
        QCheck2.assume (no_isolated_right g);
        (Side_properties.chordal g Bigraph.V2
        && Side_properties.conformal g Bigraph.V2)
        = Gyo.alpha_acyclic (Correspond.h1_exn g));
    QCheck2.Test.make ~count:200
      ~name:"Theorem 1(iv): same statements through H2 on the flip"
      small_bipartite_gen (fun g ->
        QCheck2.assume (no_isolated_right g);
        let flipped = Bigraph.flip g in
        QCheck2.assume
          (List.for_all
             (fun j -> not (Iset.is_empty (Bigraph.left_neighbors flipped j)))
             (List.init (Bigraph.nr flipped) (fun j -> j)));
        let h2 = Correspond.h2_exn g in
        Beta.acyclic h2 = Mn_chordality.is_mn_chordal_brute flipped ~m:6 ~n:1
        && Gamma.acyclic h2
           = Mn_chordality.is_mn_chordal_brute flipped ~m:6 ~n:2);
    QCheck2.Test.make ~count:200
      ~name:"H2 is the dual of H1 (Definition 3)" small_bipartite_gen
      (fun g ->
        QCheck2.assume (no_isolated_right g);
        (* Isolated left nodes would make H1 not cover its universe;
           dual then shrinks. Skip those. *)
        QCheck2.assume
          (List.for_all
             (fun i -> not (Iset.is_empty (Bigraph.right_neighbors g i)))
             (List.init (Bigraph.nl g) (fun i -> i)));
        Hypergraph.equal_modulo_order (Correspond.h2_exn g)
          (Hypergraph.dual (Correspond.h1_exn g)));
    QCheck2.Test.make ~count:150
      ~name:"Corollary 2: (6,1)-chordal => both sides chordal+conformal"
      small_bipartite_gen (fun g ->
        QCheck2.assume (no_isolated_right g);
        QCheck2.assume (Mn_chordality.is_61_chordal g);
        Side_properties.alpha_side g Bigraph.V1
        && Side_properties.alpha_side g Bigraph.V2);
    QCheck2.Test.make ~count:400
      ~name:"multi-component profile = whole-graph reference"
      multi_component_gen matches_reference;
    QCheck2.Test.make ~count:300
      ~name:"class-family profile = whole-graph reference"
      family_gen matches_reference;
    QCheck2.Test.make ~count:150 ~name:"full profile is Theorem-1 consistent"
      small_bipartite_gen (fun g ->
        Classify.theorem1_consistent (Classify.profile g));
    QCheck2.Test.make ~count:150
      ~name:"generated (6,2) bipartite instances are (6,2)"
      QCheck2.Gen.(int_range 0 5000)
      (fun seed ->
        let rng = Workloads.Rng.make ~seed in
        let g = Workloads.Gen_bipartite.chordal_62 rng ~n_right:5 ~max_size:3 in
        Mn_chordality.is_62_chordal g
        && Mn_chordality.is_mn_chordal_brute g ~m:6 ~n:2);
    QCheck2.Test.make ~count:300
      ~name:"edits and flip equal a rebuild from the edited edge list"
      edit_gen edits_match_rebuild;
    QCheck2.Test.make ~count:300
      ~name:"every single edit keeps the CSR invariants" edit_gen (fun g ->
        let nl = Bigraph.nl g and nr = Bigraph.nr g in
        List.for_all csr_invariants
          (List.concat_map
             (fun i ->
               List.concat_map
                 (fun j -> [ Bigraph.add_edge g i j; Bigraph.remove_edge g i j ])
                 (List.init nr Fun.id))
             (List.init nl Fun.id)
          @ [ Bigraph.add_relation g Iset.empty;
              Bigraph.add_relation g (Bigraph.left_nodes g) ]
          @ List.init nr (Bigraph.remove_relation g)));
    QCheck2.Test.make ~count:300
      ~name:"random edit chains equal a rebuild from the model edge list"
      edit_chain_gen edit_chain_matches_model;
  ]

(* Every branch of the cascade, reached by one small graph each: the
   profile equals the whole-graph reference and its degrees the
   umbrella recognizer on H¹/H², and the recorded checks name the
   branch taken. *)
let test_cascade_branches () =
  let profiles =
    List.map
      (fun (name, g, expected) ->
        check (name ^ ": connected") true (Bigraph.is_connected g);
        let trace = Observe.Trace.make () in
        let p = Classify.profile_connected ~trace g in
        let r = Reference_classify.reference_profile g in
        check (name ^ ": reference") true (p = r && matches_reference g);
        check (name ^ ": reference is Theorem-1 consistent") true
          (Classify.theorem1_consistent r);
        check (name ^ ": branch") true
          (List.sort compare (checks (names (Observe.Trace.spans trace)))
          = List.sort compare expected);
        p)
      cascade_cases
  in
  List.iter
    (fun d ->
      check
        ("some side is " ^ Acyclicity.degree_name d)
        true
        (List.exists
           (fun p -> p.Classify.degree_h1 = d || p.Classify.degree_h2 = d)
           profiles))
    Acyclicity.
      [ Berge_acyclic; Gamma_acyclic; Beta_acyclic; Alpha_acyclic; Cyclic ]

(* ------------------------------------------------------- exhaustive *)

(* Every bipartite graph with nl, nr <= 4: all 2^(nl·nr) edge sets on
   each universe, connected or not, isolated nodes on either side
   included. [f g] names the first property [g] breaks, if any. *)
let every_small_graph f =
  let failures = ref [] in
  for nl = 1 to 4 do
    for nr = 1 to 4 do
      for mask = 0 to (1 lsl (nl * nr)) - 1 do
        let g =
          Bigraph.of_edge_iter ~nl ~nr (fun add ->
              for b = 0 to (nl * nr) - 1 do
                if mask land (1 lsl b) <> 0 then add (b / nr) (b mod nr)
              done)
        in
        match f g with
        | None -> ()
        | Some what ->
          if List.length !failures < 5 then
            failures := (what, g) :: !failures
      done
    done
  done;
  List.iter
    (fun (what, g) -> Format.eprintf "%s fails on@.%a@." what Bigraph.pp g)
    !failures;
  check_int "no failing graph" 0 (List.length !failures)

(* The α kernel on [g]'s CSR read as H¹: its verdict is GYO's on the
   set view, and when α holds its R-parents form a join tree and its
   order has the running intersection property. An isolated right node
   is an empty hyperedge to the kernel and absent from H¹. *)
let alpha_kernel_matches_gyo g =
  let h, right_of = Correspond.h1 g in
  match Mcs.incidence (Bigraph.csr g) ~boundary:(Bigraph.nl g) with
  | None -> not (Gyo.alpha_acyclic h)
  | Some f ->
    let edge_of = Array.make (Bigraph.nr g) (-1) in
    Array.iteri (fun k j -> edge_of.(j) <- k) right_of;
    let parent =
      Array.map
        (fun j ->
          let p = f.Mcs.parent.(j) in
          if p < 0 then -1 else edge_of.(p))
        right_of
    in
    let order =
      List.filter_map
        (fun j -> if edge_of.(j) < 0 then None else Some edge_of.(j))
        (Array.to_list f.Mcs.order)
    in
    Gyo.alpha_acyclic h
    && Join_tree.verify (Join_tree.make h ~parent)
    && Join_tree.rip_holds h order

(* The 2-section cut from [g]'s CSR equals the [Ugraph] 2-section of
   H¹, node for node. *)
let two_section_matches g =
  Csr.equal
    (Hypergraph.two_section_csr (Bigraph.csr g) ~boundary:(Bigraph.nl g))
    (Csr.of_ugraph (Hypergraph.two_section (fst (Correspond.h1 g))))

(* Gilmore's kernel on [g]'s CSR read as H¹ returns the Iset
   reference's witness on H¹, mapped back to right nodes. An isolated
   right node is an empty hyperedge to the kernel, absent from H¹, and
   in no triangle of the intersection graph. *)
let gilmore_matches g =
  let h, right_of = Correspond.h1 g in
  Conformal.incidence (Bigraph.csr g) ~boundary:(Bigraph.nl g)
  = Option.map
      (fun (i, j, k) -> (right_of.(i), right_of.(j), right_of.(k)))
      (Reference_classify.gilmore_violation_sets h)

(* The γ and β kernels on G's CSR, and on H¹'s incidence CSR, equal
   Definition 4's brute force at (6,2) and (6,1) and the set-view
   oracles on H¹; the α kernel on both sides equals GYO; side
   chordality and conformality equal Definition 5's brute force on
   both sides, the CSR 2-section chordality reads equals the [Ugraph]
   one, Gilmore's kernel names the reference's witness, and on both
   sides [Acyclicity.why_not]'s α witness is real and present exactly
   when GYO fails. *)
let test_exhaustive_kernels () =
  every_small_graph (fun g ->
      let h1 = fst (Correspond.h1 g) in
      let side_chordal side =
        Side_properties.chordal g side = Side_properties.chordal_brute g side
      in
      let side_conformal side =
        Side_properties.conformal g side
        = Side_properties.conformal_brute g side
      in
      let brute62 = Mn_chordality.is_mn_chordal_brute g ~m:6 ~n:2 in
      let brute61 = Mn_chordality.is_mn_chordal_brute g ~m:6 ~n:1 in
      List.find_map
        (fun (what, ok) -> if ok then None else Some what)
        [
          ( "gamma kernel = (6,2) brute",
            Mn_chordality.is_62_chordal g = brute62 );
          ( "beta kernel = (6,1) brute",
            Mn_chordality.is_61_chordal g = brute61 );
          ("Gamma.acyclic H1 = (6,2) brute", Gamma.acyclic h1 = brute62);
          ("Beta.acyclic H1 = (6,1) brute", Beta.acyclic h1 = brute61);
          ( "gamma oracle = (6,2) brute",
            Reference_classify.gamma_acyclic_sets h1 = brute62 );
          ( "beta oracle = (6,1) brute",
            Reference_classify.beta_acyclic_sets h1 = brute61 );
          ("alpha kernel on H1 = GYO", alpha_kernel_matches_gyo g);
          ( "alpha kernel on H2 = GYO",
            alpha_kernel_matches_gyo (Bigraph.flip g) );
          ("V2 chordality = Definition 5 brute", side_chordal Bigraph.V2);
          ("V1 chordality = Definition 5 brute", side_chordal Bigraph.V1);
          ("CSR 2-section of H1 = Ugraph 2-section", two_section_matches g);
          ( "CSR 2-section of H2 = Ugraph 2-section",
            two_section_matches (Bigraph.flip g) );
          ("V2 conformality = Definition 5 brute", side_conformal Bigraph.V2);
          ("V1 conformality = Definition 5 brute", side_conformal Bigraph.V1);
          ("Gilmore kernel on H1 = Iset reference", gilmore_matches g);
          ( "Gilmore kernel on H2 = Iset reference",
            gilmore_matches (Bigraph.flip g) );
          ("alpha witness on H1 real", Gyo.alpha_witness_holds h1);
          ( "alpha witness on H2 real",
            Gyo.alpha_witness_holds (fst (Correspond.h1 (Bigraph.flip g))) );
        ])

let test_exhaustive_profile () =
  every_small_graph (fun g ->
      if Classify.profile g = Reference_classify.reference_profile g then None
      else Some "profile = reference")

let () =
  Alcotest.run "bipartite"
    [
      ( "bigraph",
        [
          Alcotest.test_case "basics" `Quick test_bigraph_basics;
          Alcotest.test_case "flip" `Quick test_flip;
          Alcotest.test_case "of_ugraph" `Quick test_of_ugraph;
        ] );
      ("correspond", [ Alcotest.test_case "h1/h2" `Quick test_h1_h2 ]);
      ( "theorem1-fixed",
        [
          Alcotest.test_case "(4,1) forest" `Quick test_41_is_forest;
          Alcotest.test_case "(6,1) three ways" `Quick test_61_three_ways;
        ] );
      ( "classify",
        [
          Alcotest.test_case "fig3b profile" `Quick test_profile_fig3b;
          Alcotest.test_case "fig2 profile" `Quick test_profile_fig2;
          Alcotest.test_case "unstructured fallback" `Quick
            test_profile_gnp_cyclic;
          Alcotest.test_case "figures match the reference" `Quick
            test_profile_figures;
          Alcotest.test_case "one classify span per call" `Quick
            test_classify_spans;
          Alcotest.test_case "every cascade branch" `Quick
            test_cascade_branches;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
      ( "exhaustive",
        [
          Alcotest.test_case "kernels, nl, nr <= 4" `Quick
            test_exhaustive_kernels;
          Alcotest.test_case "profile, nl, nr <= 4" `Quick
            test_exhaustive_profile;
        ] );
    ]
