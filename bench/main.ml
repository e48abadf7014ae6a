(* Benchmark and reproduction harness.

   The paper is a theory paper: its "evaluation" artifacts are Figures
   1-11 and the complexity theorems. This executable regenerates all of
   them:

     figures  — re-validate every figure instance against the claims
                the text makes about it (PASS/FAIL table);
     tables   — statistical tables: Theorem 1 agreement rates, duality
                (Corollary 1), class containments (Corollary 2/H1),
                solution-quality comparison (Q2), Yannakakis payoff (Y1);
     scaling  — timing series: Algorithm 1/2 polynomial growth (T4/T5),
                exact-DP exponential growth in the terminal count (T2,
                Q1 crossover);
     micro    — Bechamel micro-benchmarks, one Test.make per
                experiment id.

   Run everything:      dune exec bench/main.exe
   Run one section:     dune exec bench/main.exe -- figures
   See EXPERIMENTS.md for the experiment index and expected shapes. *)

open Graphs
open Bipartite
open Steiner

(* Every section derives its randomness through this one helper (shared
   with examples/steiner_playground.ml via Workloads.Rng.for_trial), so
   a given trial of a given experiment is reproducible run to run and
   independent of what other sections consumed before it. *)
let trial ~section t = Workloads.Rng.for_trial ~section ~trial:t

let header title = Printf.printf "\n==== %s ====\n%!" title

(* ------------------------------------------------------------------ *)
(* Section: figures                                                    *)
(* ------------------------------------------------------------------ *)

let check_row exp claim ok =
  Printf.printf "%-6s %-66s %s\n" exp claim (if ok then "PASS" else "FAIL");
  ok

let figures_section () =
  header "figure reproduction (paper claim -> measured)";
  let all_ok = ref true in
  let row e c ok = all_ok := check_row e c ok && !all_ok in
  let module F = Datamodel.Figures in
  (* F1 *)
  let interps =
    Datamodel.Er.interpretations ~k:3 F.fig1_er ~objects:F.fig1_query
  in
  row "F1" "query {EMPLOYEE, DATE} has >= 2 interpretations"
    (List.length interps >= 2);
  row "F1" "minimal interpretation discloses no auxiliary object"
    (match interps with
    | first :: _ -> List.sort compare first = [ "DATE"; "EMPLOYEE" ]
    | [] -> false);
  row "F1" "second interpretation routes through WORKS"
    (match interps with _ :: s :: _ -> List.mem "WORKS" s | _ -> false);
  (* F2 *)
  let g2 = F.fig2.F.graph in
  row "F2" "H1 alpha-acyclic but dual H2 alpha-cyclic (Corollary 1 boundary)"
    (Hypergraphs.Acyclicity.alpha_acyclic (Correspond.h1_exn g2)
    && not (Hypergraphs.Acyclicity.alpha_acyclic (Correspond.h2_exn g2)));
  (* F3/F4 *)
  let deg g = Hypergraphs.Acyclicity.degree (Correspond.h1_exn g) in
  row "F3a" "forest, Berge-acyclic H1 (Fig 4a)"
    (Mn_chordality.is_41_chordal F.fig3a.F.graph
    && deg F.fig3a.F.graph = Hypergraphs.Acyclicity.Berge_acyclic);
  row "F3b" "(6,2)-chordal, gamma-acyclic H1 (Fig 4b)"
    (Mn_chordality.is_62_chordal F.fig3b.F.graph
    && deg F.fig3b.F.graph = Hypergraphs.Acyclicity.Gamma_acyclic);
  row "F3c" "(6,1)- not (6,2)-chordal, beta-acyclic H1 (Fig 4c)"
    (Mn_chordality.is_61_chordal F.fig3c.F.graph
    && (not (Mn_chordality.is_62_chordal F.fig3c.F.graph))
    && deg F.fig3c.F.graph = Hypergraphs.Acyclicity.Beta_acyclic);
  let u3c = Bigraph.ugraph F.fig3c.F.graph in
  row "F3c" "pseudo-Steiner (min V2) tree over {A,B,E} that is not Steiner"
    (Cover.is_cover u3c ~p:F.fig3c_p F.fig3c_pseudo_nodes
    &&
    match Dreyfus_wagner.optimum_nodes u3c ~terminals:F.fig3c_p with
    | Some opt -> Iset.cardinal F.fig3c_pseudo_nodes > opt
    | None -> false);
  (* F5 *)
  let g5 = F.fig5.F.graph in
  row "F5" "chordal+conformal on both sides yet not (6,1)-chordal"
    (Side_properties.alpha_side g5 Bigraph.V1
    && Side_properties.alpha_side g5 Bigraph.V2
    && not (Mn_chordality.is_61_chordal g5));
  (* F6 *)
  let red6 = Reductions.theorem2 F.fig6_x3c in
  row "F6" "X3C instance solvable and Steiner fits the 4q+1 budget"
    (X3c.solve F.fig6_x3c <> None && Reductions.steiner_within_budget red6);
  row "F6" "reduction gadget is V2-chordal V2-conformal"
    (Reductions.theorem2_gadget_ok red6);
  (* F8 *)
  let u8 = Bigraph.ugraph F.fig8.F.graph in
  row "F8" "nonredundant cover of {A,C,D} that is not minimum"
    (Cover.is_nonredundant_cover u8 ~p:F.fig8_p F.fig8_nonredundant
    &&
    match
      Cover.minimum_cover_size_brute u8 ~within:(Ugraph.nodes u8) ~p:F.fig8_p
    with
    | Some m -> Iset.cardinal F.fig8_nonredundant > m
    | None -> false);
  (* F9 *)
  row "F9" "CSPC on chordal input = pseudo-Steiner V2 on reduction"
    (Reductions.fig9_equivalence_holds F.fig9_chordal_input
       ~terminals:(Iset.of_list [ 0; 4 ]));
  (* F10 *)
  row "F10" "(6,1)-chordal graph with a nonredundant non-minimum path"
    (Mn_chordality.is_61_chordal F.fig10.F.graph
    && Cover.nonredundant_nonminimum_pair (Bigraph.ugraph F.fig10.F.graph)
       <> None);
  (* F11 *)
  let u11 = Bigraph.ugraph F.fig11.F.graph in
  let case_fails first =
    match (F.fig11_bad_terminals ~first, F.index_of_name F.fig11 first) with
    | Some p, Some v -> not (Good_ordering.is_good_for u11 ~order:[ v ] ~p)
    | _ -> false
  in
  row "F11" "Theorem 6: all four ordering case classes fail"
    (List.for_all case_fails [ "A"; "B"; "1"; "2" ]);
  row "F11" "Fig 11 graph is (6,1)- but not (6,2)-chordal"
    (Mn_chordality.is_61_chordal F.fig11.F.graph
    && not (Mn_chordality.is_62_chordal F.fig11.F.graph));
  Printf.printf "-- figures: %s\n"
    (if !all_ok then "ALL CLAIMS REPRODUCED" else "SOME CLAIMS FAILED");
  (* Emit DOT renderings of every figure instance as artifacts. *)
  let dir = "_artifacts" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter
    (fun (id, l) ->
      let g = l.F.graph in
      let dot =
        Graphs.Dot.of_bipartite_like ~name:l.F.title
          ~left_labels:(fun i -> l.F.left_names.(i))
          ~right_labels:(fun j -> l.F.right_names.(j))
          ~nl:(Bigraph.nl g) ~nr:(Bigraph.nr g) (Bigraph.edges g)
      in
      let oc = open_out (Filename.concat dir (id ^ ".dot")) in
      output_string oc dot;
      close_out oc)
    F.all_labeled;
  Printf.printf "   (DOT renderings written to %s/)\n" dir

(* ------------------------------------------------------------------ *)
(* Section: tables                                                     *)
(* ------------------------------------------------------------------ *)

(* T1: Theorem 1 equivalence agreement rates on random bipartite
   graphs (fast hypergraph recognisers vs brute-force definitions). *)
let table_t1 () =
  header "T1: Theorem 1 equivalences on random bipartite graphs";
  let trials = 400 in
  let agree_i = ref 0 and agree_ii = ref 0 and agree_iii = ref 0 in
  let agree_v = ref 0 and total = ref 0 in
  for seed = 0 to trials - 1 do
    let rng = trial ~section:"t1" seed in
    let nl = 2 + Workloads.Rng.int rng 4 and nr = 1 + Workloads.Rng.int rng 4 in
    let g = Workloads.Gen_bipartite.gnp rng ~nl ~nr ~p:0.5 in
    let isolated =
      List.exists
        (fun j -> Iset.is_empty (Bigraph.left_neighbors g j))
        (List.init (Bigraph.nr g) (fun j -> j))
    in
    if not isolated then begin
      incr total;
      let h1 = Correspond.h1_exn g in
      if
        Mn_chordality.is_mn_chordal_brute g ~m:4 ~n:1
        = Hypergraphs.Berge.acyclic h1
      then incr agree_i;
      if
        Mn_chordality.is_mn_chordal_brute g ~m:6 ~n:2
        = Hypergraphs.Gamma.acyclic h1
      then incr agree_ii;
      if
        Mn_chordality.is_mn_chordal_brute g ~m:6 ~n:1
        = Hypergraphs.Beta.acyclic h1
      then incr agree_iii;
      if
        (Side_properties.chordal_brute g Bigraph.V2
        && Side_properties.conformal_brute g Bigraph.V2)
        = Hypergraphs.Acyclicity.alpha_acyclic h1
      then incr agree_v
    end
  done;
  Printf.printf "statement                          agreement (paper: 100%%)\n";
  Printf.printf "(i)   (4,1) <-> Berge(H1)          %d/%d\n" !agree_i !total;
  Printf.printf "(ii)  (6,2) <-> gamma(H1)          %d/%d\n" !agree_ii !total;
  Printf.printf "(iii) (6,1) <-> beta(H1)           %d/%d\n" !agree_iii !total;
  Printf.printf "(v)   V2-ch+conf <-> alpha(H1)     %d/%d\n" !agree_v !total

(* C1: self-duality of Berge/gamma/beta; alpha's failure rate. *)
let table_c1 () =
  header "C1: Corollary 1 duality on random hypergraphs";
  let trials = 500 in
  let ok_b = ref 0 and ok_g = ref 0 and ok_be = ref 0 in
  let alpha_breaks = ref 0 and alpha_cases = ref 0 in
  for seed = 0 to trials - 1 do
    let rng = trial ~section:"c1" seed in
    let h =
      Workloads.Gen_hyper.random rng
        ~n_nodes:(2 + Workloads.Rng.int rng 5)
        ~n_edges:(1 + Workloads.Rng.int rng 5)
        ~max_size:4
    in
    let d = Hypergraphs.Hypergraph.dual h in
    if Hypergraphs.Berge.acyclic h = Hypergraphs.Berge.acyclic d then incr ok_b;
    if Hypergraphs.Gamma.acyclic h = Hypergraphs.Gamma.acyclic d then incr ok_g;
    if Hypergraphs.Beta.acyclic h = Hypergraphs.Beta.acyclic d then incr ok_be;
    if Hypergraphs.Acyclicity.alpha_acyclic h then begin
      incr alpha_cases;
      if not (Hypergraphs.Acyclicity.alpha_acyclic d) then incr alpha_breaks
    end
  done;
  Printf.printf "Berge self-dual: %d/%d   gamma: %d/%d   beta: %d/%d\n" !ok_b
    trials !ok_g trials !ok_be trials;
  Printf.printf
    "alpha NOT self-dual: dual cyclic for %d of %d alpha-acyclic inputs\n"
    !alpha_breaks !alpha_cases

(* H1: empirical census across the hierarchy. *)
let table_h1 () =
  header "H1: acyclicity hierarchy census on random hypergraphs";
  let trials = 1500 in
  let counts = Hashtbl.create 8 in
  let bump k =
    Hashtbl.replace counts k
      (1 + try Hashtbl.find counts k with Not_found -> 0)
  in
  let violations = ref 0 in
  for seed = 0 to trials - 1 do
    let rng = trial ~section:"h1" seed in
    let h =
      Workloads.Gen_hyper.random rng
        ~n_nodes:(2 + Workloads.Rng.int rng 5)
        ~n_edges:(1 + Workloads.Rng.int rng 5)
        ~max_size:4
    in
    let r = Hypergraphs.Acyclicity.report h in
    if not (Hypergraphs.Acyclicity.hierarchy_consistent r) then incr violations;
    bump (Hypergraphs.Acyclicity.degree_name (Hypergraphs.Acyclicity.degree h))
  done;
  List.iter
    (fun k ->
      Printf.printf "%-15s %d\n" k
        (try Hashtbl.find counts k with Not_found -> 0))
    [
      "Berge-acyclic"; "gamma-acyclic"; "beta-acyclic"; "alpha-acyclic";
      "cyclic";
    ];
  Printf.printf "hierarchy violations: %d (paper: 0)\n" !violations

(* Q2: solution quality across classes. *)
let table_q2 () =
  header "Q2: solution quality (node counts; ratio vs exact optimum)";
  let run name gen_graph trials =
    let alg2_total = ref 0 and approx_total = ref 0 and opt_total = ref 0 in
    let ls_total = ref 0 in
    let alg2_exact = ref 0 and cases = ref 0 in
    let attempt = ref 0 in
    while !cases < trials && !attempt < trials * 20 do
      let rng = trial ~section:("q2-" ^ name) !attempt in
      incr attempt;
      let g = gen_graph rng in
      let u = Bigraph.ugraph g in
      let p = Workloads.Gen_bipartite.random_terminals rng g ~k:4 in
      if Iset.cardinal p >= 2 then
        match
          ( Algorithm2.solve u ~p,
            Dreyfus_wagner.optimum_nodes u ~terminals:p,
            Mst_approx.solve u ~terminals:p,
            Local_search.solve ~iterations:60 ~seed:!attempt u ~terminals:p )
        with
        | Some a, Some opt, Some ap, Some ls ->
          incr cases;
          alg2_total := !alg2_total + Tree.node_count a;
          approx_total := !approx_total + Tree.node_count ap;
          ls_total := !ls_total + Tree.node_count ls;
          opt_total := !opt_total + opt;
          if Tree.node_count a = opt then incr alg2_exact
        | _ -> ()
    done;
    Printf.printf
      "%-22s cases=%-4d alg2/opt=%.4f  approx/opt=%.4f  local/opt=%.4f  alg2 exact on %d/%d\n"
      name !cases
      (float_of_int !alg2_total /. float_of_int !opt_total)
      (float_of_int !approx_total /. float_of_int !opt_total)
      (float_of_int !ls_total /. float_of_int !opt_total)
      !alg2_exact !cases
  in
  run "(6,2)-chordal"
    (fun rng -> Workloads.Gen_bipartite.chordal_62 rng ~n_right:7 ~max_size:4)
    120;
  run "alpha-acyclic"
    (fun rng ->
      Workloads.Gen_bipartite.alpha_bipartite rng ~n_right:6 ~max_size:3)
    120;
  run "random bipartite"
    (fun rng -> Workloads.Gen_bipartite.gnp rng ~nl:7 ~nr:7 ~p:0.3)
    120;
  Printf.printf
    "(expected shape: ratio 1.0000 and all-exact on (6,2); >= 1 elsewhere)\n"

(* C0: classify the realistic-schema corpus. *)
let table_c0 () =
  header "C0: realistic schema corpus census";
  Printf.printf "%-12s %-15s %s\n" "schema" "degree" "recommendation";
  List.iter
    (fun (name, schema) ->
      let profile = Datamodel.Schema.profile schema in
      Printf.printf "%-12s %-15s %s\n" name
        (Hypergraphs.Acyclicity.degree_name (Datamodel.Schema.acyclicity schema))
        (Classify.recommendation_name (Classify.recommend profile)))
    Datamodel.Corpus.all

(* P1: where do schemas sit? Probability of each chordality class as
   edge density grows (random bipartite graphs, 6+5 nodes). *)
let table_p1 () =
  header "P1: chordality-class phase profile vs edge density";
  Printf.printf "%8s %10s %10s %10s %14s %10s\n" "p" "(4,1)" "(6,2)" "(6,1)"
    "alpha(H1)" "cyclic";
  List.iter
    (fun p10 ->
      let p = float_of_int p10 /. 10.0 in
      let trials = 300 in
      let c41 = ref 0 and c62 = ref 0 and c61 = ref 0 in
      let calpha = ref 0 and ccyc = ref 0 in
      for seed = 0 to trials - 1 do
        let rng = trial ~section:(Printf.sprintf "p1-%d" p10) seed in
        let g = Workloads.Gen_bipartite.gnp rng ~nl:6 ~nr:5 ~p in
        let profile = Classify.profile g in
        if profile.Classify.chordal_41 then incr c41;
        if profile.Classify.chordal_62 then incr c62;
        if profile.Classify.chordal_61 then incr c61;
        if profile.Classify.alpha_h1 then incr calpha;
        if not profile.Classify.alpha_h1 then incr ccyc
      done;
      Printf.printf "%8.1f %10d %10d %10d %14d %10d\n" p !c41 !c62 !c61
        !calpha !ccyc)
    [ 1; 2; 3; 4; 5; 7 ];
  Printf.printf
    "(shape: the classes collapse quickly with density - the guarantees of\n\
    \ Section 3 are a sparse-schema phenomenon, which real schemas are)\n"

(* W1: random attribute-pair query workloads over the realistic
   corpus: mean connection size and ambiguity rate. *)
let table_w1 () =
  header "W1: query workloads over the corpus (100 random 2-attribute queries)";
  Printf.printf "%-12s %14s %14s %12s\n" "schema" "answerable" "mean size"
    "unambiguous";
  List.iter
    (fun (name, schema) ->
      let attrs = Datamodel.Schema.attributes schema in
      let rng = trial ~section:("w1-" ^ name) 0 in
      let answerable = ref 0 and size_total = ref 0 and unamb = ref 0 in
      for _ = 1 to 100 do
        let objects = Workloads.Rng.sample rng 2 attrs in
        match Datamodel.Query.minimal_connection schema ~objects with
        | Ok c ->
          incr answerable;
          size_total := !size_total + List.length c.Datamodel.Query.objects;
          (match Datamodel.Query.is_unambiguous schema ~objects with
          | Ok true -> incr unamb
          | Ok false | Error _ -> ())
        | Error _ -> ()
      done;
      Printf.printf "%-12s %11d/100 %14.2f %9d/%d\n" name !answerable
        (if !answerable = 0 then 0.0
         else float_of_int !size_total /. float_of_int !answerable)
        !unamb !answerable)
    Datamodel.Corpus.all
  [@@warning "-26"]

(* Y1: acyclicity payoff for query evaluation. *)
let table_y1 () =
  header "Y1: Yannakakis vs naive join on a chain schema";
  let make_db rng n_rows =
    let rels =
      List.init 4 (fun j ->
          let a = Printf.sprintf "a%d" j
          and b = Printf.sprintf "a%d" (j + 1) in
          let rows =
            List.init n_rows (fun _ ->
                [
                  string_of_int (Workloads.Rng.int rng 8);
                  string_of_int (Workloads.Rng.int rng 8);
                ])
          in
          (Printf.sprintf "r%d" j, Relalg.Relation.make ~attrs:[ a; b ] rows))
    in
    Relalg.Database.make rels
  in
  List.iter
    (fun n_rows ->
      let rng = trial ~section:"y1" n_rows in
      let db = make_db rng n_rows in
      let output = [ "a0"; "a4" ] in
      let time f =
        let t0 = Sys.time () in
        let r = f () in
        (r, (Sys.time () -. t0) *. 1000.0)
      in
      let ok_rel = function
        | Ok r -> r
        | Error e -> failwith (Runtime.Errors.to_string e)
      in
      let ry, ty =
        time (fun () -> ok_rel (Relalg.Yannakakis.evaluate db ~output))
      in
      let rn, tn =
        time (fun () -> ok_rel (Relalg.Yannakakis.evaluate_naive db ~output))
      in
      Printf.printf
        "rows/rel=%-5d yannakakis %8.2f ms   naive %8.2f ms   agree=%b\n"
        n_rows ty tn
        (Relalg.Relation.equal ry rn))
    [ 50; 150; 400 ]

(* ------------------------------------------------------------------ *)
(* Section: scaling                                                    *)
(* ------------------------------------------------------------------ *)

let time_ms f =
  let t0 = Sys.time () in
  let reps = ref 0 in
  while Sys.time () -. t0 < 0.04 do
    ignore (Sys.opaque_identity (f ()));
    incr reps
  done;
  (Sys.time () -. t0) *. 1000.0 /. float_of_int !reps

(* T4: Algorithm 1 runtime vs instance size (paper: O(|V| * |A|)). *)
let scaling_t4 () =
  header "T4: Algorithm 1 scaling on alpha-acyclic instances";
  Printf.printf "%8s %8s %8s %12s %16s\n" "n_right" "|V|" "|A|" "ms/query"
    "ms/(V*A) * 1e3";
  List.iter
    (fun n_right ->
      let rng = trial ~section:"t4" n_right in
      let g =
        Workloads.Gen_bipartite.alpha_bipartite rng ~n_right ~max_size:5
      in
      let p = Workloads.Gen_bipartite.random_terminals rng g ~k:5 in
      let v = Bigraph.n g and a = Bigraph.m g in
      let ms = time_ms (fun () -> Algorithm1.solve g ~p) in
      Printf.printf "%8d %8d %8d %12.3f %16.4f\n" n_right v a ms
        (ms *. 1e3 /. float_of_int (v * a)))
    [ 10; 20; 40; 80; 160 ]

(* T5: Algorithm 2 scaling on (6,2)-chordal instances. *)
let scaling_t5 () =
  header "T5: Algorithm 2 scaling on (6,2)-chordal instances";
  Printf.printf "%8s %8s %8s %12s %16s\n" "n_right" "|V|" "|A|" "ms/query"
    "ms/(V*A) * 1e3";
  List.iter
    (fun n_right ->
      let rng = trial ~section:"t5" n_right in
      let g = Workloads.Gen_bipartite.chordal_62 rng ~n_right ~max_size:5 in
      let u = Bigraph.ugraph g in
      let p = Workloads.Gen_bipartite.random_terminals rng g ~k:5 in
      let v = Bigraph.n g and a = Bigraph.m g in
      let ms = time_ms (fun () -> Algorithm2.solve u ~p) in
      Printf.printf "%8d %8d %8d %12.3f %16.4f\n" n_right v a ms
        (ms *. 1e3 /. float_of_int (v * a)))
    [ 10; 20; 40; 80; 160 ]

(* Q1: the polynomial/exponential crossover. *)
let scaling_q1 () =
  header "Q1: exact DP vs Algorithm 2 as terminals grow ((6,2)-chordal)";
  let rng = trial ~section:"q1" 0 in
  let g = Workloads.Gen_bipartite.chordal_62 rng ~n_right:30 ~max_size:4 in
  let u = Bigraph.ugraph g in
  Printf.printf "%10s %14s %14s %8s\n" "terminals" "alg2 ms" "exact ms" "same?";
  List.iter
    (fun k ->
      let p = Workloads.Gen_bipartite.random_terminals (trial ~section:"q1-terminals" k) g ~k in
      if Iset.cardinal p >= 2 then begin
        let t_alg2 = time_ms (fun () -> Algorithm2.solve u ~p) in
        let t_dw = time_ms (fun () -> Dreyfus_wagner.solve u ~terminals:p) in
        let same =
          match
            ( Algorithm2.solve u ~p,
              Dreyfus_wagner.optimum_nodes u ~terminals:p )
          with
          | Some t, Some opt -> Tree.node_count t = opt
          | _ -> false
        in
        Printf.printf "%10d %14.3f %14.3f %8b\n" k t_alg2 t_dw same
      end)
    [ 2; 4; 6; 8; 10; 12 ];
  Printf.printf
    "(expected shape: alg2 flat; exact grows exponentially in terminals)\n"

(* T2: exact Steiner on Theorem 2 gadgets as q grows. *)
let scaling_t2 () =
  header "T2: exact Steiner on Theorem 2 gadgets (3q+1 terminals)";
  Printf.printf "%4s %10s %10s %12s\n" "q" "terminals" "budget" "ms";
  List.iter
    (fun q ->
      let rng = trial ~section:"t2" q in
      let inst = Workloads.Gen_x3c.planted rng ~q ~distractors:q in
      let red = Reductions.theorem2 inst in
      let t0 = Sys.time () in
      let ok = Reductions.steiner_within_budget red in
      let ms = (Sys.time () -. t0) *. 1000.0 in
      Printf.printf "%4d %10d %10d %12.1f  (solvable=%b)\n" q
        (Iset.cardinal red.Reductions.terminals)
        red.Reductions.budget ms ok)
    [ 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Section: ablations                                                  *)
(* ------------------------------------------------------------------ *)

(* A1: the single-pass elimination exactly as printed in the paper vs
   the fixpoint re-scan this implementation uses (DESIGN.md section 7):
   how often does one pass strand a redundant node, and what does it
   cost in solution size? *)
let ablation_a1 () =
  header "A1: single-pass vs fixpoint elimination ((6,2)-chordal inputs)";
  (* One scan, exactly as Algorithms 1–2 are printed in the paper: it
     can leave a redundant node behind (DESIGN.md §7). *)
  let single_pass ~order u ~within ~p =
    List.fold_left
      (fun current v ->
        if Iset.mem v p || not (Iset.mem v current) then current
        else
          let candidate = Iset.remove v current in
          if Cover.is_cover u ~p candidate then candidate else current)
      within order
  in
  let trials = 400 in
  let nonoptimal_once = ref 0 and redundant_once = ref 0 in
  let nonoptimal_fix = ref 0 and cases = ref 0 in
  let extra_nodes = ref 0 in
  let attempt = ref 0 in
  while !cases < trials && !attempt < trials * 10 do
    let rng = trial ~section:"a1" !attempt in
    incr attempt;
    let g = Workloads.Gen_bipartite.chordal_62 rng ~n_right:6 ~max_size:3 in
    let u = Bigraph.ugraph g in
    let p = Workloads.Gen_bipartite.random_terminals rng g ~k:3 in
    let order =
      Workloads.Rng.shuffle rng (Iset.elements (Ugraph.nodes u))
    in
    if Iset.cardinal p >= 2 then
      match
        (Graphs.Traverse.component_containing u p,
         Dreyfus_wagner.optimum_nodes u ~terminals:p)
      with
      | Some comp, Some opt ->
        incr cases;
        let once = single_pass ~order u ~within:comp ~p in
        let fixp = Cover.eliminate_redundant ~order u ~within:comp ~p in
        if not (Cover.is_nonredundant_cover u ~p once) then incr redundant_once;
        if Iset.cardinal once <> opt then begin
          incr nonoptimal_once;
          extra_nodes := !extra_nodes + Iset.cardinal once - opt
        end;
        if Iset.cardinal fixp <> opt then incr nonoptimal_fix
      | _ -> ()
  done;
  Printf.printf
    "single pass (paper text): redundant result on %d/%d, non-optimal on %d/%d (+%d nodes total)
"
    !redundant_once !cases !nonoptimal_once !cases !extra_nodes;
  Printf.printf "fixpoint (this impl):     non-optimal on %d/%d (Theorem 5: 0 expected)
"
    !nonoptimal_fix !cases

(* A2: four independent (6,1) recognisers, timed on growing chordal-
   bipartite instances built from gamma-acyclic hypergraphs. *)
let ablation_a2 () =
  header "A2: (6,1) recognisers (beta(H1) vs bisimplicial vs doubly-lex)";
  Printf.printf "%8s %8s %14s %18s %16s\n" "|V|" "|A|" "beta(H1) ms"
    "bisimplicial ms" "doubly-lex ms";
  List.iter
    (fun n_right ->
      let rng = trial ~section:"a2" n_right in
      let g = Workloads.Gen_bipartite.chordal_62 rng ~n_right ~max_size:4 in
      let t_beta = time_ms (fun () -> Mn_chordality.is_61_chordal g) in
      let t_bis =
        time_ms (fun () -> Mn_chordality.is_61_chordal_bisimplicial g)
      in
      let t_dlex = time_ms (fun () -> Doubly_lex.is_61_chordal_doubly_lex g) in
      Printf.printf "%8d %8d %14.3f %18.3f %16.3f\n" (Bigraph.n g)
        (Bigraph.m g) t_beta t_bis t_dlex)
    [ 8; 16; 32; 64 ]

(* A3: Definition 7 (chordal 2-section and Gilmore's criterion) vs the
   linear MCS kernel every caller runs. *)
let ablation_a3 () =
  header "A3: alpha-acyclicity recognisers (Definition 7 vs MCS kernel)";
  Printf.printf "%8s %8s %12s %12s %8s
" "edges" "nodes" "Def7 ms" "MCS ms" "agree";
  List.iter
    (fun n_edges ->
      let rng = trial ~section:"a3" n_edges in
      let h = Workloads.Gen_hyper.alpha_acyclic rng ~n_edges ~max_size:5 in
      let by_definition = Hypergraphs.Acyclicity.alpha_acyclic_by_definition in
      let t_def = time_ms (fun () -> by_definition h) in
      let t_mcs = time_ms (fun () -> Hypergraphs.Mcs.alpha_acyclic h) in
      Printf.printf "%8d %8d %12.3f %12.3f %8b
" n_edges
        (Hypergraphs.Hypergraph.n_nodes h) t_def t_mcs
        (by_definition h = Hypergraphs.Mcs.alpha_acyclic h))
    [ 10; 20; 40; 80 ]

(* D1: the dialogue's point — proposing interpretations smallest-first
   minimises expected concept disclosure under an "immediate reading"
   intent prior (geometric over the ranked list), versus proposing the
   same candidate set in random order. *)
let ablation_d1 () =
  header "D1: ranked vs random proposal order (expected disclosures)";
  let trials = 150 in
  let ranked_total = ref 0 and random_total = ref 0 and cases = ref 0 in
  for seed = 0 to trials - 1 do
    let rng = trial ~section:"d1" seed in
    let h = Workloads.Gen_hyper.gamma_acyclic rng ~n_edges:5 ~max_size:3 in
    let attr i = Printf.sprintf "a%d" i in
    let schema =
      Datamodel.Schema.make
        (Array.to_list (Hypergraphs.Hypergraph.edges h)
        |> List.mapi (fun j e ->
               (Printf.sprintf "r%d" j, List.map attr (Iset.elements e))))
    in
    let attrs = Datamodel.Schema.attributes schema in
    let objects = Workloads.Rng.sample rng 2 attrs in
    let candidates =
      Datamodel.Query.interpretations ~k:6 schema ~objects
    in
    if List.length candidates >= 2 then begin
      incr cases;
      (* Geometric intent prior over the ranked candidates. *)
      let rec pick i = function
        | [ last ] -> (i, last)
        | c :: rest ->
          if Workloads.Rng.bool rng 0.6 then (i, c) else pick (i + 1) rest
        | [] -> assert false
      in
      let _, target = pick 0 candidates in
      let disclosures order =
        let rec go acc = function
          | [] -> acc
          | c :: rest ->
            let acc =
              acc + List.length c.Datamodel.Query.auxiliary
            in
            if c == target then acc else go acc rest
        in
        go 0 order
      in
      ranked_total := !ranked_total + disclosures candidates;
      random_total :=
        !random_total + disclosures (Workloads.Rng.shuffle rng candidates)
    end
  done;
  Printf.printf
    "cases=%d  ranked (paper's procedure): %.2f concepts  random order: %.2f concepts\n"
    !cases
    (float_of_int !ranked_total /. float_of_int !cases)
    (float_of_int !random_total /. float_of_int !cases)

(* A4: cost of ranked interpretation enumeration as k grows. *)
let ablation_a4 () =
  header "A4: k-best connection enumeration cost";
  let rng = trial ~section:"a4" 0 in
  let g = Workloads.Gen_bipartite.gnp rng ~nl:9 ~nr:9 ~p:0.3 in
  let u = Bigraph.ugraph g in
  let p = Workloads.Gen_bipartite.random_terminals rng g ~k:3 in
  Printf.printf "%6s %10s %12s
" "k" "found" "ms";
  List.iter
    (fun k ->
      let found = ref 0 in
      let ms =
        time_ms (fun () ->
            let trees = Kbest.enumerate ~max_trees:k u ~terminals:p in
            found := List.length trees;
            trees)
      in
      Printf.printf "%6d %10d %12.3f
" k !found ms)
    [ 1; 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* Section: micro (Bechamel)                                           *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let rng = trial ~section:"micro" 0 in
  let g62 = Workloads.Gen_bipartite.chordal_62 rng ~n_right:40 ~max_size:4 in
  let u62 = Bigraph.ugraph g62 in
  let p62 = Workloads.Gen_bipartite.random_terminals (trial ~section:"micro-terminals" 1) g62 ~k:5 in
  let galpha =
    Workloads.Gen_bipartite.alpha_bipartite rng ~n_right:40 ~max_size:4
  in
  let palpha =
    Workloads.Gen_bipartite.random_terminals (trial ~section:"micro-terminals" 2) galpha ~k:5
  in
  let gnp = Workloads.Gen_bipartite.gnp rng ~nl:12 ~nr:12 ~p:0.3 in
  let pnp = Workloads.Gen_bipartite.random_terminals (trial ~section:"micro-terminals" 3) gnp ~k:5 in
  let unp = Bigraph.ugraph gnp in
  let wnp = Array.init (Bigraph.n gnp) (fun v -> 1 + (v mod 3)) in
  let h_rand =
    Workloads.Gen_hyper.random rng ~n_nodes:20 ~n_edges:12 ~max_size:5
  in
  let chordal_g = Workloads.Gen_graph.random_chordal rng ~n:60 ~max_clique:5 in
  let x3c = Workloads.Gen_x3c.planted rng ~q:3 ~distractors:3 in
  let red = Reductions.theorem2 x3c in
  let db_rng = trial ~section:"micro-db" 0 in
  let db =
    Relalg.Database.make
      (List.init 4 (fun j ->
           let a = Printf.sprintf "a%d" j
           and b = Printf.sprintf "a%d" (j + 1) in
           ( Printf.sprintf "r%d" j,
             Relalg.Relation.make ~attrs:[ a; b ]
               (List.init 120 (fun _ ->
                    [
                      string_of_int (Workloads.Rng.int db_rng 10);
                      string_of_int (Workloads.Rng.int db_rng 10);
                    ])) )))
  in
  [
    Test.make ~name:"T1/classify-profile"
      (Staged.stage (fun () -> Classify.profile gnp));
    Test.make ~name:"T4/algorithm1"
      (Staged.stage (fun () -> Algorithm1.solve galpha ~p:palpha));
    Test.make ~name:"T5/algorithm2"
      (Staged.stage (fun () -> Algorithm2.solve u62 ~p:p62));
    Test.make ~name:"T2/exact-x3c-gadget-q3"
      (Staged.stage (fun () -> Reductions.steiner_within_budget red));
    Test.make ~name:"Q1/exact-dp-5-terminals"
      (Staged.stage (fun () -> Dreyfus_wagner.solve unp ~terminals:pnp));
    Test.make ~name:"Q2/mst-approx"
      (Staged.stage (fun () -> Mst_approx.solve u62 ~terminals:p62));
    Test.make ~name:"H1/acyclicity-report"
      (Staged.stage (fun () -> Hypergraphs.Acyclicity.report h_rand));
    Test.make ~name:"S1/mcs-chordality"
      (Staged.stage (fun () -> Chordal.is_chordal chordal_g));
    Test.make ~name:"S2/mcs-join-tree"
      (Staged.stage (fun () ->
           Hypergraphs.Mcs.join_tree (Correspond.h1_exn g62)));
    Test.make ~name:"Y1/yannakakis"
      (Staged.stage (fun () ->
           Relalg.Yannakakis.evaluate db ~output:[ "a0"; "a4" ]));
    Test.make ~name:"Y1/naive-join"
      (Staged.stage (fun () ->
           Relalg.Yannakakis.evaluate_naive db ~output:[ "a0"; "a4" ]));
    Test.make ~name:"X1/strongly-chordal-60"
      (Staged.stage (fun () ->
           Strongly_chordal.is_strongly_chordal chordal_g));
    Test.make ~name:"X2/weighted-steiner-5t"
      (Staged.stage (fun () ->
           Dreyfus_wagner.solve_csr ~weight:wnp (Bigraph.csr gnp)
             ~terminals:pnp));
    Test.make ~name:"X3/kbest-4"
      (Staged.stage (fun () ->
           Kbest.enumerate ~max_trees:4 unp ~terminals:pnp));
    Test.make ~name:"X4/min-fill-decomposition"
      (Staged.stage (fun () ->
           Hypergraphs.Decomposition.of_hypergraph h_rand));
  ]

let micro_section () =
  header "micro-benchmarks (Bechamel, one per experiment id)";
  let open Bechamel in
  let open Toolkit in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.3) ~kde:None () in
  Printf.printf "%-28s %14s\n" "experiment" "ns/run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-28s %14.0f\n" name est
          | Some _ | None -> Printf.printf "%-28s %14s\n" name "n/a")
        analyzed)
    (micro_tests ());
  Printf.printf "%!"

(* ------------------------------------------------------------------ *)
(* Section: kernels                                                    *)
(* ------------------------------------------------------------------ *)

(* Timing for the flat CSR kernel layer on a small size ladder per
   section: the [mcs] α kernel raced against GYO, and the [chordal]
   kernel (maximum cardinality search plus the zero fill-in test) on
   its own. The whole trajectory is written as machine-readable JSON
   (BENCH_kernels.json by default) so runs can be compared across
   commits. [--trials k] controls repetitions per
   measurement, [--max-n k] caps the generator size parameter (the
   bench-smoke alias uses --trials 1 --max-n 64), [--json path] sets
   the output file. *)

let time_mean ~trials f =
  ignore (Sys.opaque_identity (f ()));
  let total = ref 0.0 in
  for _ = 1 to trials do
    let t0 = Sys.time () in
    let reps = ref 0 in
    let continue = ref true in
    (* With several trials, repeat until the window is long enough to
       time reliably; with --trials 1 (smoke), a single call is enough. *)
    while !continue do
      ignore (Sys.opaque_identity (f ()));
      incr reps;
      continue := trials > 1 && Sys.time () -. t0 < 0.02
    done;
    total := !total +. ((Sys.time () -. t0) *. 1000.0 /. float_of_int !reps)
  done;
  !total /. float_of_int trials

(* Shared bench envelope (schema minconn-bench/2): every BENCH_*.json
   written by this harness is
     {schema, section, commit, trials, max_n,
      entries: [{name, ns_per_op, ...extras}]}
   so one validator covers all trajectory files and downstream tooling
   parses them uniformly.  The commit id is the actual checkout at
   generation time (git rev-parse); MINCONN_COMMIT overrides it for
   drivers that bench an uncommitted tree, and "unknown" is the last
   resort outside any repository.  [domains] is always 1: every section
   runs on one domain. *)

let bench_schema = "minconn-bench/2"

let git_commit () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> None
  | ic ->
    let line = try Some (input_line ic) with End_of_file -> None in
    let status = Unix.close_process_in ic in
    (match (status, line) with
    | Unix.WEXITED 0, Some c when String.trim c <> "" -> Some (String.trim c)
    | _ -> None)

let commit_id () =
  match Sys.getenv_opt "MINCONN_COMMIT" with
  | Some c when c <> "" -> c
  | _ -> ( match git_commit () with Some c -> c | None -> "unknown")

(* Entries carry scalar extras only; nested values have no place in a
   flat trajectory row. *)
let render_scalar = function
  | Observe.Json.Jnum f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.6f" f
  | Observe.Json.Jstr s -> Printf.sprintf "\"%s\"" (Observe.Json.escape s)
  | Observe.Json.Jbool b -> string_of_bool b
  | _ -> invalid_arg "render_scalar: scalar extras only"

let bench_json ~section ~trials ~max_n entries =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n  \"schema\": \"%s\",\n" bench_schema;
  Printf.bprintf b "  \"section\": \"%s\",\n" (Observe.Json.escape section);
  Printf.bprintf b "  \"commit\": \"%s\",\n"
    (Observe.Json.escape (commit_id ()));
  Printf.bprintf b "  \"domains\": 1,\n";
  Printf.bprintf b "  \"trials\": %d,\n  \"max_n\": %d,\n  \"entries\": [\n"
    trials max_n;
  let last = List.length entries - 1 in
  List.iteri
    (fun i (name, ns, extras) ->
      Printf.bprintf b "    { \"name\": \"%s\", \"ns_per_op\": %.3f"
        (Observe.Json.escape name) ns;
      List.iter
        (fun (k, v) ->
          Printf.bprintf b ", \"%s\": %s" (Observe.Json.escape k)
            (render_scalar v))
        extras;
      Printf.bprintf b " }%s\n" (if i = last then "" else ","))
    entries;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

(* Envelope validator shared by every section that writes a trajectory
   file; callers exit nonzero on [Error], so bench-smoke fails loudly
   on malformed JSON. *)
let validate_bench_json path =
  let module J = Observe.Json in
  match J.parse (J.read_file path) with
  | Error msg -> Error msg
  | Ok j -> (
    let str k = match J.member k j with Some (J.Jstr s) -> Some s | _ -> None in
    match (str "schema", str "section", str "commit", J.member "entries" j) with
    | Some s, _, _, _ when s <> bench_schema -> Error ("unexpected schema: " ^ s)
    | _, _, Some "", _ -> Error "empty commit id"
    | Some _, Some sec, Some _, Some (J.Jarr entries) when entries <> [] -> (
      match J.member "domains" j with
      | Some (J.Jnum d) when d >= 1.0 && Float.is_integer d ->
        let num_ok fields k =
          match List.assoc_opt k fields with
          | Some (J.Jnum v) -> v >= 0.0
          | _ -> false
        in
        let entry_ok = function
          | J.Jobj fields -> (
            match
              (List.assoc_opt "name" fields, List.assoc_opt "ns_per_op" fields)
            with
            | Some (J.Jstr _), Some (J.Jnum ns) -> ns >= 0.0
            | _ -> false)
          | _ -> false
        in
        (* The scale section carries mandatory memory/throughput extras:
           every entry reports its peak heap, and construction entries
           additionally report edge throughput; every frontend entry
           reports edge throughput. *)
        let has_sub ~sub s =
          let n = String.length s and k = String.length sub in
          let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
          go 0
        in
        let scale_ok = function
          | J.Jobj fields ->
            num_ok fields "peak_heap_words"
            && (match List.assoc_opt "name" fields with
               | Some (J.Jstr name) ->
                 (not (has_sub ~sub:"construct" name))
                 || num_ok fields "edges_per_sec"
               | _ -> false)
          | _ -> false
        in
        let frontend_ok = function
          | J.Jobj fields -> num_ok fields "edges_per_sec"
          | _ -> false
        in
        if
          List.for_all entry_ok entries
          && (sec <> "scale" || List.for_all scale_ok entries)
          && (sec <> "frontend" || List.for_all frontend_ok entries)
        then Ok (List.length entries)
        else Error "malformed entry"
      | _ -> Error "missing or invalid domains field")
    | _ -> Error "missing schema/section/commit or nonempty entries")

let write_bench_json ~section ~trials ~max_n ~path entries =
  let oc = open_out path in
  output_string oc (bench_json ~section ~trials ~max_n entries);
  close_out oc;
  match validate_bench_json path with
  | Ok k ->
    Printf.printf "wrote %s (%d entries, schema %s validated)\n" path k
      bench_schema
  | Error msg ->
    Printf.eprintf "invalid JSON written to %s: %s\n" path msg;
    exit 1

(* A timed row in the shared envelope: mean_ms is kept as an extra for
   human diffing, ns_per_op is the canonical value. *)
let timed_entry ~section ~impl ~n ~m ~ms =
  ( Printf.sprintf "%s/%s/n%d" section impl n,
    ms *. 1e6,
    [
      ("impl", Observe.Json.Jstr impl);
      ("n", Observe.Json.Jnum (float_of_int n));
      ("m", Observe.Json.Jnum (float_of_int m));
      ("mean_ms", Observe.Json.Jnum ms);
    ] )

let kernels_section ~trials ~max_n ~scale_max_n ~json_path () =
  header "kernels: flat CSR kernels (dw node weights raced against unit)";
  Printf.printf "%-10s %-8s %6s %8s %12s\n" "section" "impl" "|V|" "|E|"
    "mean ms";
  let rows = ref [] in
  let run ~section ~n ~m impl f =
    let ms = time_mean ~trials f in
    Printf.printf "%-10s %-8s %6d %8d %12.4f\n%!" section impl n m ms;
    rows := !rows @ [ timed_entry ~section ~impl ~n ~m ~ms ];
    ms
  in
  let sizes l = List.filter (fun x -> x <= max_n) l in
  List.iter
    (fun n_edges ->
      let rng = trial ~section:"kernels-mcs" n_edges in
      let h = Workloads.Gen_hyper.alpha_acyclic rng ~n_edges ~max_size:6 in
      let n = Hypergraphs.Hypergraph.n_nodes h
      and m = Hypergraphs.Hypergraph.n_edges h in
      ignore
        (run ~section:"mcs" ~n ~m "csr" (fun () -> Hypergraphs.Mcs.join_tree h)))
    (sizes [ 16; 32; 64; 128 ]);
  List.iter
    (fun nsz ->
      let rng = trial ~section:"kernels-chordal" nsz in
      let g = Workloads.Gen_graph.random_chordal rng ~n:nsz ~max_clique:6 in
      ignore
        (run ~section:"chordal" ~n:(Ugraph.n g) ~m:(Ugraph.m g) "csr"
           (fun () -> Chordal.is_chordal g)))
    (sizes [ 48; 96; 192; 384 ]);
  (* The exact DP on one connected α schema, three terminals, with unit
     weights, with weights 1 + v mod 3 and with heavy weights drawn
     from 10^4 .. 10^6 (total ≫ n + m); like the engine's alpha rows
     the ladder (n ≈ 300 and 3,000) is capped by --scale-max-n. *)
  let largest = ref None in
  List.iter
    (fun n_right ->
      let g =
        Workloads.Gen_bipartite.alpha_bipartite
          (trial ~section:"kernels-dw" n_right)
          ~n_right ~max_size:4
      in
      let csr = Bigraph.csr g and n = Bigraph.n g and m = Bigraph.m g in
      let terminals =
        Workloads.Gen_bipartite.random_terminals
          (trial ~section:"kernels-dw-terminals" n_right)
          g ~k:3
      in
      let weight = Array.init n (fun v -> 1 + (v mod 3)) in
      let heavy =
        let rng = trial ~section:"kernels-dw-heavy" n_right in
        Array.init n (fun _ -> 10_000 + Workloads.Rng.int rng 990_001)
      in
      let solve ?weight () =
        match Dreyfus_wagner.solve_csr ?weight csr ~terminals with
        | Some _ -> ()
        | None -> failwith "kernels bench: dw terminals disconnected"
      in
      let t_unit = run ~section:"dw" ~n ~m "unit" (fun () -> solve ()) in
      let t_weighted = run ~section:"dw" ~n ~m "weighted" (solve ~weight) in
      let t_heavy = run ~section:"dw" ~n ~m "heavy" (solve ~weight:heavy) in
      largest := Some (n, t_unit, t_weighted, t_heavy))
    (List.filter (fun r -> 3 * r <= scale_max_n) [ 100; 1000 ]);
  Option.iter
    (fun (n, t_unit, t_weighted, t_heavy) ->
      (* Small weights stay within 2x of unit; heavy ones pay a few more
         radix-heap moves per entry, but no pass grows with the costs
         (a queue spanning them would be ~10^4x slower here). *)
      List.iter
        (fun (impl, t, bound) ->
          let ratio = t /. t_unit in
          Printf.printf "-- dw n=%d %s/unit = %.4f (must be <= %g)%s\n" n impl
            ratio bound
            (if ratio <= bound then "" else "  TOO SLOW"))
        [ ("weighted", t_weighted, 2.); ("heavy", t_heavy, 8.) ])
    !largest;
  write_bench_json ~section:"kernels" ~trials ~max_n ~path:json_path !rows

(* ------------------------------------------------------------------ *)
(* Section: runtime                                                    *)
(* ------------------------------------------------------------------ *)

(* Budget-check overhead: the same solver call with the default
   unlimited budget (fast path: one load + branch per checkpoint)
   versus an armed but effectively inexhaustible budget (full slow
   path: fuel decrement plus a wall-clock poll every stride). The
   delta bounds what cooperative cancellation costs in the hot loops;
   the target is <= 3% on the instances that matter (the largest per
   section). Rows share the kernels JSON shape so the same validator
   covers BENCH_runtime.json. *)
let runtime_section ~trials ~max_n ~json_path () =
  header "runtime: budget-check overhead (unlimited vs armed budget)";
  Printf.printf "%-12s %-10s %6s %8s %12s\n" "section" "impl" "|V|" "|E|"
    "mean ms";
  let rows = ref [] in
  (* Inexhaustible but still [limited]: fuel <> max_int forces the
     decrement, no deadline avoids gettimeofday in Budget.make. *)
  let generous () = Minconn.Budget.make ~fuel:1_000_000_000 () in
  let largest = ref [] in
  let pair ~section ~n ~m base budgeted =
    let run impl f =
      let ms = time_mean ~trials f in
      Printf.printf "%-12s %-10s %6d %8d %12.4f\n%!" section impl n m ms;
      rows := !rows @ [ timed_entry ~section ~impl ~n ~m ~ms ];
      ms
    in
    let t_base = run "unlimited" base in
    let t_budget = run "budgeted" budgeted in
    largest :=
      (section, (t_base, t_budget)) :: List.remove_assoc section !largest
  in
  let sizes l = List.filter (fun x -> x <= max_n) l in
  List.iter
    (fun n_right ->
      let rng = trial ~section:"runtime-alg2" n_right in
      let g = Workloads.Gen_bipartite.chordal_62 rng ~n_right ~max_size:5 in
      let u = Bigraph.ugraph g in
      let p = Workloads.Gen_bipartite.random_terminals rng g ~k:5 in
      pair ~section:"algorithm2" ~n:(Bigraph.n g) ~m:(Bigraph.m g)
        (fun () -> Algorithm2.solve u ~p)
        (fun () -> Algorithm2.solve ~budget:(generous ()) u ~p))
    (sizes [ 20; 40; 80; 160 ]);
  List.iter
    (fun nsz ->
      let rng = trial ~section:"runtime-dw" nsz in
      let g = Workloads.Gen_bipartite.gnp rng ~nl:nsz ~nr:nsz ~p:0.3 in
      let u = Bigraph.ugraph g in
      let p = Workloads.Gen_bipartite.random_terminals rng g ~k:8 in
      if Iset.cardinal p >= 2 then
        pair ~section:"dreyfus" ~n:(Bigraph.n g) ~m:(Bigraph.m g)
          (fun () -> Dreyfus_wagner.solve u ~terminals:p)
          (fun () ->
            Dreyfus_wagner.solve ~budget:(generous ()) u ~terminals:p))
    (sizes [ 10; 12; 14 ]);
  List.iter
    (fun (section, (t_base, t_budget)) ->
      let ratio = if t_base > 0.0 then t_budget /. t_base else 1.0 in
      Printf.printf
        "-- %-12s largest instance: budgeted/unlimited = %.4f (target <= 1.03)%s\n"
        section ratio
        (if ratio <= 1.03 then "" else "  OVER TARGET"))
    (List.rev !largest);
  write_bench_json ~section:"runtime" ~trials ~max_n ~path:json_path !rows

(* ------------------------------------------------------------------ *)
(* Section: observe                                                    *)
(* ------------------------------------------------------------------ *)

(* Instrumentation overhead: the same solver call with observability
   off (the default disabled trace/metrics: one load + branch per
   checkpoint) versus a recording trace plus a live metrics registry,
   and the microcost of one disabled checkpoint.  The per-checkpoint
   cost times the checkpoint count bounds the disabled-instrumentation
   overhead of a solve; the bound is recorded in the JSON (target
   <= 2%% of the solve).  Writes BENCH_observe.json in the shared
   envelope. *)
let observe_section ~trials ~max_n ~json_path () =
  header "observe: instrumentation overhead (disabled vs recording)";
  Printf.printf "%-12s %-10s %6s %8s %12s\n" "section" "impl" "|V|" "|E|"
    "mean ms";
  let rows = ref [] in
  let largest = ref [] in
  let alg2_largest = ref None in
  let pair ~section ~n ~m off on =
    let run impl f =
      let ms = time_mean ~trials f in
      Printf.printf "%-12s %-10s %6d %8d %12.4f\n%!" section impl n m ms;
      rows := !rows @ [ timed_entry ~section ~impl ~n ~m ~ms ];
      ms
    in
    let t_off = run "disabled" off in
    let t_on = run "recording" on in
    largest :=
      (section, (t_off, t_on)) :: List.remove_assoc section !largest
  in
  let sizes l = List.filter (fun x -> x <= max_n) l in
  List.iter
    (fun n_right ->
      let rng = trial ~section:"observe-alg2" n_right in
      let g = Workloads.Gen_bipartite.chordal_62 rng ~n_right ~max_size:5 in
      let u = Bigraph.ugraph g in
      let p = Workloads.Gen_bipartite.random_terminals rng g ~k:5 in
      alg2_largest := Some (u, p);
      pair ~section:"algorithm2" ~n:(Bigraph.n g) ~m:(Bigraph.m g)
        (fun () -> Algorithm2.solve u ~p)
        (fun () ->
          Algorithm2.solve
            ~trace:(Observe.Trace.make ())
            ~metrics:(Observe.Metrics.make ())
            u ~p))
    (sizes [ 20; 40; 80; 160 ]);
  List.iter
    (fun n_right ->
      let rng = trial ~section:"observe-solve" n_right in
      let g = Workloads.Gen_bipartite.chordal_62 rng ~n_right ~max_size:5 in
      let p = Workloads.Gen_bipartite.random_terminals rng g ~k:4 in
      pair ~section:"solve" ~n:(Bigraph.n g) ~m:(Bigraph.m g)
        (fun () -> Minconn.solve g ~p)
        (fun () ->
          Minconn.solve
            ~trace:(Observe.Trace.make ())
            ~metrics:(Observe.Metrics.make ())
            g ~p))
    (sizes [ 20; 40; 80 ]);
  (* Microcost of one checkpoint, disabled vs live, net of loop cost. *)
  let reps = 1_000_000 in
  let loop f () =
    for _ = 1 to reps do
      f ()
    done
  in
  let t_empty = time_mean ~trials (loop (fun () -> ())) in
  let t_off =
    time_mean ~trials
      (loop (fun () ->
           Observe.Metrics.incr Observe.Metrics.inert;
           ignore
             (Sys.opaque_identity
                (Observe.Trace.active Observe.Trace.disabled))))
  in
  let live = Observe.Metrics.make () in
  let live_c = Observe.Metrics.counter live "bench.checkpoint" in
  let t_live = time_mean ~trials (loop (fun () -> Observe.Metrics.incr live_c)) in
  let per_ns t = Float.max 0.0 ((t -. t_empty) *. 1e6 /. float_of_int reps) in
  let off_ns = per_ns t_off and live_ns = per_ns t_live in
  Printf.printf "-- checkpoint: disabled %.2f ns/op, live %.2f ns/op\n" off_ns
    live_ns;
  rows :=
    !rows
    @ [
        ( "checkpoint/disabled",
          off_ns,
          [ ("impl", Observe.Json.Jstr "disabled") ] );
        ("checkpoint/live", live_ns, [ ("impl", Observe.Json.Jstr "live") ]);
      ];
  List.iter
    (fun (section, (t_off, t_on)) ->
      let ratio = if t_off > 0.0 then t_on /. t_off else 1.0 in
      Printf.printf "-- %-12s largest instance: recording/disabled = %.4f\n"
        section ratio)
    (List.rev !largest);
  (* Bound the disabled-instrumentation overhead of the largest
     algorithm2 solve: checkpoints (elimination steps) times the
     per-checkpoint disabled cost, as a fraction of the solve. *)
  (match (!alg2_largest, List.assoc_opt "algorithm2" !largest) with
  | Some (u, p), Some (t_off_ms, _) when t_off_ms > 0.0 ->
    let m = Observe.Metrics.make () in
    ignore (Algorithm2.solve ~metrics:m u ~p);
    let steps =
      match List.assoc_opt "elimination.steps" (Observe.Metrics.counters m) with
      | Some k -> k
      | None -> 0
    in
    let bound_pct =
      float_of_int steps *. off_ns /. (t_off_ms *. 1e6) *. 100.0
    in
    Printf.printf
      "-- disabled-instrumentation bound: %d checkpoints x %.2f ns = %.4f%% \
       of the solve (target <= 2%%)\n"
      steps off_ns bound_pct;
    rows :=
      !rows
      @ [
          ( "overhead/disabled_bound",
            off_ns,
            [
              ("checkpoints", Observe.Json.Jnum (float_of_int steps));
              ("pct_of_solve", Observe.Json.Jnum bound_pct);
              ("target_pct", Observe.Json.Jnum 2.0);
            ] );
        ]
  | _ -> ());
  write_bench_json ~section:"observe" ~trials ~max_n ~path:json_path !rows

(* ------------------------------------------------------------------ *)
(* Section: engine                                                     *)
(* ------------------------------------------------------------------ *)

(* Compile-once amortization: a batch of terminal-set queries over one
   schema, answered (a) by the one-shot [Minconn.solve] (which repays
   classification and ordering construction on every call), (b) by an
   [Engine.Session] over a schema compiled before the timed region.
   Compile cost is its own row, so BENCH_engine.json separates the
   price paid once from the per-query cost it buys down. The headline
   check: session ns/query strictly below one-shot ns/query on every
   workload. *)
let engine_section ~trials ~max_n ~scale_max_n ~json_path () =
  header "engine: one-shot solve vs compile-once session (ms per query)";
  Printf.printf "%-12s %-10s %6s %8s %8s %12s\n" "section" "impl" "|V|" "|E|"
    "queries" "mean ms";
  let rows = ref [] in
  let ratios = ref [] in
  let batch ~section g =
    let u = Bigraph.ugraph g in
    let queries =
      List.init 16 (fun k ->
          Workloads.Gen_bipartite.random_terminals
            (trial ~section:(section ^ "-terminals") k)
            g ~k:4)
      |> List.filter (fun p ->
             Iset.cardinal p >= 2 && Traverse.connects u p)
    in
    let nq = List.length queries in
    if nq = 0 then ()
    else begin
      let n = Bigraph.n g and m = Bigraph.m g in
      let row impl ~per_query ms =
        let per = if per_query then ms /. float_of_int nq else ms in
        Printf.printf "%-12s %-10s %6d %8d %8d %12.4f\n%!" section impl n m nq
          per;
        let name, ns, extras = timed_entry ~section ~impl ~n ~m ~ms:per in
        rows :=
          !rows
          @ [ (name, ns, extras @ [ ("queries", Observe.Json.Jnum (float_of_int nq)) ]) ];
        per
      in
      let t_compile =
        time_mean ~trials (fun () -> Minconn.Compiled.compile g)
      in
      ignore (row "compile" ~per_query:false t_compile);
      let compiled = Minconn.Compiled.compile g in
      let session = Minconn.Session.create compiled in
      let t_session =
        row "session" ~per_query:true
          (time_mean ~trials (fun () ->
               List.iter
                 (fun p -> ignore (Minconn.Session.query session ~p))
                 queries))
      in
      let t_oneshot =
        row "oneshot" ~per_query:true
          (time_mean ~trials (fun () ->
               List.iter (fun p -> ignore (Minconn.solve g ~p)) queries))
      in
      ratios :=
        (Printf.sprintf "%s n=%d" section n, t_session, t_oneshot) :: !ratios
    end
  in
  let sizes l = List.filter (fun x -> x <= max_n) l in
  (* n_right 80 is the ceiling: the one-shot comparator re-runs the
     full classification per query (~2.5 s at n=293), so larger tiers
     would dominate the whole bench run for no extra signal. *)
  List.iter
    (fun n_right ->
      let rng = trial ~section:"engine-62" n_right in
      batch ~section:"chordal62"
        (Workloads.Gen_bipartite.chordal_62 rng ~n_right ~max_size:5))
    (sizes [ 20; 40; 80 ]);
  List.iter
    (fun nsz ->
      let rng = trial ~section:"engine-gnp" nsz in
      batch ~section:"gnp"
        (Workloads.Gen_bipartite.gnp rng ~nl:nsz ~nr:nsz ~p:0.3))
    (sizes [ 16; 32; 64 ]);
  (* Alpha rows: off (6,2), so every query runs the exact DP rung on its
     component's CSR. One 3-terminal query on a warm session over a
     connected alpha schema at n ≈ 10^3 and 10^4, and the mean of an
     8-query in-block burst over the disjoint scale-alpha family at
     10^5; both ladders are capped by [--scale-max-n]. *)
  let query_row ~section ~n ~m ~nq ms =
    Printf.printf "%-12s %-10s %6d %8d %8d %12.4f\n%!" section "query" n m nq
      ms;
    let name, ns, extras = timed_entry ~section ~impl:"query" ~n ~m ~ms in
    rows :=
      !rows
      @ [
          ( name,
            ns,
            extras
            @ [
                ("queries", Observe.Json.Jnum (float_of_int nq));
                ("terminals", Observe.Json.Jnum 3.0);
              ] );
        ]
  in
  let answer s p =
    match Minconn.Session.query s ~p with
    | Ok _ -> ()
    | Error _ -> failwith "engine bench: alpha query failed"
  in
  List.iter
    (fun n_right ->
      let g =
        Workloads.Gen_bipartite.alpha_bipartite
          (trial ~section:"engine-alpha" n_right)
          ~n_right ~max_size:4
      in
      let s = Minconn.Session.create (Minconn.Compiled.compile g) in
      let p =
        Workloads.Gen_bipartite.random_terminals
          (trial ~section:"engine-alpha-terminals" n_right)
          g ~k:3
      in
      query_row ~section:"alpha-connected" ~n:(Bigraph.n g) ~m:(Bigraph.m g)
        ~nq:1
        (time_mean ~trials (fun () -> answer s p)))
    (List.filter (fun r -> 3 * r <= scale_max_n) [ 335; 3350 ]);
  if scale_max_n >= 100_000 then begin
    let inst =
      Workloads.Gen_scale.make Workloads.Gen_scale.Alpha ~target_n:100_000
        ~seed:2026
    in
    let s =
      Minconn.Session.create
        (Minconn.Compiled.compile (Workloads.Gen_scale.to_bigraph inst))
    in
    let blocks = Workloads.Gen_scale.n_blocks inst in
    let queries =
      List.init 8 (fun i ->
          Workloads.Gen_scale.block_terminals inst ~block:(i * blocks / 8) ~k:3)
    in
    query_row ~section:"scale-alpha" ~n:(Workloads.Gen_scale.n inst)
      ~m:(Workloads.Gen_scale.m inst) ~nq:8
      (time_mean ~trials (fun () -> List.iter (answer s) queries) /. 8.0)
  end;
  List.iter
    (fun (what, t_session, t_oneshot) ->
      Printf.printf
        "-- %-16s session/oneshot per query = %.4f (must be < 1)%s\n" what
        (if t_oneshot > 0.0 then t_session /. t_oneshot else 1.0)
        (if t_session < t_oneshot then "" else "  NOT AMORTIZED"))
    (List.rev !ratios);
  write_bench_json ~section:"engine" ~trials ~max_n ~path:json_path !rows

(* ------------------------------------------------------------------ *)
(* Section: plancache                                                  *)
(* ------------------------------------------------------------------ *)

(* Cold-vs-warm compile curve for the persistent plan cache: per
   workload/size, the cold compile (classification + orderings), the
   envelope store, and the warm [Plan_cache.find] that replaces the
   compile on the next process. The headline check backs the cache's
   reason to exist: warm load must cost at most 0.2x the cold compile
   once the graph is big enough (n >= 100) for classification to
   dominate. Below that the cache is still correct, just not yet
   profitable — the ratio line says which regime each size is in. *)
let plancache_section ~trials ~max_n ~json_path () =
  header "plancache: cold compile vs envelope store vs warm load (ms)";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "minconn-bench-plancache.%d" (Unix.getpid ()))
  in
  let cache =
    match Minconn.Plan_cache.create ~dir () with
    | Ok c -> c
    | Error msg ->
      Printf.eprintf "plancache: cannot create %s: %s\n" dir msg;
      exit 1
  in
  Printf.printf "%-12s %-8s %6s %8s %12s\n" "section" "impl" "|V|" "|E|"
    "mean ms";
  let rows = ref [] in
  let ratios = ref [] in
  let bench_workload ~section g =
    let n = Bigraph.n g and m = Bigraph.m g in
    let row impl ms =
      Printf.printf "%-12s %-8s %6d %8d %12.4f\n%!" section impl n m ms;
      rows := !rows @ [ timed_entry ~section ~impl ~n ~m ~ms ];
      ms
    in
    let t_cold = row "cold" (time_mean ~trials (fun () -> Minconn.Compiled.compile g)) in
    let compiled = Minconn.Compiled.compile g in
    let t_store =
      row "store"
        (time_mean ~trials (fun () ->
             match Minconn.Plan_cache.store cache compiled with
             | Ok () -> ()
             | Error msg -> failwith ("plancache store: " ^ msg)))
    in
    ignore t_store;
    let t_warm =
      row "warm"
        (time_mean ~trials (fun () ->
             match Minconn.Plan_cache.find cache g with
             | Ok c -> ignore (Sys.opaque_identity c)
             | Error miss ->
               failwith
                 ("plancache warm find missed: "
                 ^ Minconn.Plan_cache.miss_name miss)))
    in
    ratios := (section, n, t_cold, t_warm) :: !ratios
  in
  let sizes l = List.filter (fun x -> x <= max_n) l in
  List.iter
    (fun n_right ->
      let rng = trial ~section:"plancache-62" n_right in
      bench_workload ~section:"chordal62"
        (Workloads.Gen_bipartite.chordal_62 rng ~n_right ~max_size:5))
    (sizes [ 20; 40; 80 ]);
  List.iter
    (fun n_right ->
      let rng = trial ~section:"plancache-alpha" n_right in
      bench_workload ~section:"alpha"
        (Workloads.Gen_bipartite.alpha_bipartite rng ~n_right ~max_size:5))
    (sizes [ 20; 40; 80 ]);
  List.iter
    (fun nsz ->
      let rng = trial ~section:"plancache-gnp" nsz in
      bench_workload ~section:"gnp"
        (Workloads.Gen_bipartite.gnp rng ~nl:nsz ~nr:nsz ~p:0.3))
    (sizes [ 16; 32; 64 ]);
  List.iter
    (fun (section, n, t_cold, t_warm) ->
      let ratio = if t_cold > 0.0 then t_warm /. t_cold else 1.0 in
      if n >= 100 then
        Printf.printf "-- %-10s n=%-4d warm/cold = %.4f (must be <= 0.2)%s\n"
          section n ratio
          (if ratio <= 0.2 then "" else "  NOT PROFITABLE")
      else
        Printf.printf "-- %-10s n=%-4d warm/cold = %.4f (below threshold size)\n"
          section n ratio)
    (List.rev !ratios);
  (* Leave no droppings: the bench cache is process-private. *)
  (match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      names;
    (try Unix.rmdir dir with Unix.Unix_error _ -> ()));
  write_bench_json ~section:"plancache" ~trials ~max_n ~path:json_path !rows

(* ------------------------------------------------------------------ *)
(* Section: relalg                                                     *)
(* ------------------------------------------------------------------ *)

(* Throughput of the columnar Yannakakis engine against the naive
   left-fold join, on chain databases whose last relation is 95%
   dangling tuples — the workload where a semijoin reducer pays: the
   reducer prunes the doomed mass up front, while the naive fold
   grows its intermediates by the full rows/domain factor before the
   final join discards them. Both set and bag semantics run the same
   ladder; extras record total input tuples and tuples/sec so the
   trajectory file doubles as a throughput record. At the largest size
   Yannakakis must be strictly faster than naive per semantics
   ("NOT FASTER" otherwise). *)

let relalg_section ~trials ~max_n ~json_path () =
  header "relalg: Yannakakis vs naive join on dangling chains";
  Printf.printf "%-10s %-12s %6s %9s %11s %14s\n" "semantics" "impl" "n"
    "tuples" "mean ms" "tuples/sec";
  let rows = ref [] in
  let outcomes = ref [] in
  let length = 5 in
  let ok_rel = function
    | Ok r -> r
    | Error e -> failwith (Runtime.Errors.to_string e)
  in
  let bench ~sem_name ~semantics n =
    let rows_per_rel = n * 128 in
    (* rows/domain = 4 gives every naive intermediate a 4x growth
       factor; dangling 0.95 means the reducer kills most of that mass
       before any join runs. *)
    let domain = max 2 (rows_per_rel / 4) in
    let rng = trial ~section:("relalg-" ^ sem_name) n in
    let db =
      Workloads.Gen_db.chain ~semantics ~dangling:0.95 rng ~length
        ~rows:rows_per_rel ~domain
    in
    let tuples = Relalg.Database.total_tuples db in
    let output = [ "a0"; Printf.sprintf "a%d" length ] in
    let section = "relalg-" ^ sem_name in
    let run impl eval =
      let ms =
        time_mean ~trials (fun () ->
            ignore (Sys.opaque_identity (ok_rel (eval db ~output))))
      in
      let tps =
        if ms > 0.0 then float_of_int tuples /. (ms /. 1000.0) else 0.0
      in
      Printf.printf "%-10s %-12s %6d %9d %11.3f %14.0f\n%!" sem_name impl n
        tuples ms tps;
      let name, ns, extras = timed_entry ~section ~impl ~n ~m:tuples ~ms in
      rows :=
        !rows @ [ (name, ns, extras @ [ ("tuples_per_sec", Observe.Json.Jnum tps) ]) ];
      ms
    in
    let ry = ok_rel (Relalg.Yannakakis.evaluate db ~output) in
    let rn = ok_rel (Relalg.Yannakakis.evaluate_naive db ~output) in
    if not (Relalg.Relation.equal ry rn) then begin
      Printf.eprintf "relalg: yannakakis/naive DISAGREE at %s n=%d\n" sem_name
        n;
      exit 1
    end;
    let t_y = run "yannakakis" (fun db ~output ->
        Relalg.Yannakakis.evaluate db ~output)
    in
    let t_n = run "naive" (fun db ~output ->
        Relalg.Yannakakis.evaluate_naive db ~output)
    in
    outcomes := (sem_name, n, t_y, t_n) :: !outcomes
  in
  let sizes = List.filter (fun x -> x <= max_n) [ 64; 128; 256 ] in
  List.iter (fun n -> bench ~sem_name:"set" ~semantics:Relalg.Relation.Set n)
    sizes;
  List.iter (fun n -> bench ~sem_name:"bag" ~semantics:Relalg.Relation.Bag n)
    sizes;
  let top = List.fold_left max 0 sizes in
  List.iter
    (fun (sem_name, n, t_y, t_n) ->
      if n = top then
        let ratio = if t_n > 0.0 then t_y /. t_n else 1.0 in
        Printf.printf
          "-- %-4s n=%-4d yannakakis/naive = %.4f (must be < 1)%s\n" sem_name
          n ratio
          (if t_y < t_n then "" else "  NOT FASTER"))
    (List.rev !outcomes);
  write_bench_json ~section:"relalg" ~trials ~max_n ~path:json_path !rows

(* ------------------------------------------------------------------ *)
(* Section: serve                                                      *)
(* ------------------------------------------------------------------ *)

(* Closed-loop load generator against an in-process server: K
   keep-alive client threads each fire a fixed request budget at
   [POST /solve] over a pool of pre-checked solvable terminal sets and
   record per-request wall latency. Two profiles: [nominal] sits under
   the admission cap (every connection admitted, unpressured answers),
   and [overload] runs more clients than [max_inflight] with the
   watermark at the floor — excess connects are shed with an immediate
   503 (clients reconnect-loop, counting sheds) while admitted work
   answers from cheaper rungs under pressure fuel. Entry rows carry
   mean admitted latency as ns_per_op plus p50/p95/p99 and the
   shed/degraded/error counters from the server's metrics. *)

let serve_percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

(* Terminal-set pool, drawn from the workload generator: terminals come
   from the largest connected component ([random_terminals]), so every
   request is answerable — the MST rung is total on connected terminal
   sets — without the old draw-and-pre-solve rejection loop. Rendered
   through the same name table the server resolves against, so every
   benched request is a real answer, never a 4xx. *)
let serve_query_pool nb =
  let g = nb.Mc_io.Parse.graph in
  let rng = trial ~section:"serve-queries" 1 in
  let pool = ref [] in
  for _ = 1 to 8 do
    let k = 2 + Workloads.Rng.int rng 3 in
    let p = Workloads.Gen_bipartite.random_terminals rng g ~k in
    if Iset.cardinal p >= 2 then
      pool :=
        String.concat " "
          (List.map (Serve.Render.name_of nb) (Iset.elements p))
        :: !pool
  done;
  if !pool = [] then (
    Printf.eprintf "serve bench: no solvable terminal sets found\n";
    exit 1);
  Array.of_list !pool

(* One client thread: keep-alive loop with reconnect-on-shed. Returns
   (admitted latencies in ms, sheds, errors). *)
let serve_client ~port ~reqs ~queries idx =
  let lats = Array.make reqs 0.0 in
  let n_ok = ref 0 and n_shed = ref 0 and n_err = ref 0 in
  let conn = ref None in
  let drop () =
    (match !conn with
    | Some (fd, _) -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    conn := None
  in
  let get_conn () =
    match !conn with
    | Some c -> c
    | None ->
      let rec go tries =
        match
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
           with e -> Unix.close fd; raise e);
          fd
        with
        | fd -> fd
        | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET), _, _)
          when tries > 0 ->
          Unix.sleepf 0.002;
          go (tries - 1)
      in
      let fd = go 200 in
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      let c = (fd, Serve.Http.conn fd) in
      conn := Some c;
      c
  in
  for r = 0 to reqs - 1 do
    let fd, c = get_conn () in
    let body = queries.((idx + r) mod Array.length queries) in
    let req =
      Printf.sprintf
        "POST /solve HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s"
        (String.length body) body
    in
    let t0 = Unix.gettimeofday () in
    match
      ignore (Unix.write_substring fd req 0 (String.length req) : int);
      Serve.Http.read_response c
    with
    | Ok resp when resp.Serve.Http.code = 503 ->
      incr n_shed;
      drop ()
    | Ok resp when resp.Serve.Http.code = 200 ->
      lats.(!n_ok) <- (Unix.gettimeofday () -. t0) *. 1000.0;
      incr n_ok
    | Ok _ ->
      incr n_err;
      drop ()
    | Error _ ->
      incr n_err;
      drop ()
    | exception Unix.Unix_error _ ->
      incr n_err;
      drop ()
  done;
  drop ();
  (Array.sub lats 0 !n_ok, !n_shed, !n_err)

let serve_profile ~name ~clients ~reqs ~config nb rows =
  let metrics = Observe.Metrics.make () in
  let srv =
    match Serve.Server.create ~config ~metrics nb with
    | Ok s -> s
    | Error msg ->
      Printf.eprintf "serve bench: %s\n" msg;
      exit 1
  in
  let th = Serve.Server.start srv in
  let port = Serve.Server.port srv in
  let queries = serve_query_pool nb in
  let out = Array.make clients ([||], 0, 0) in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun i ->
        Thread.create (fun () -> out.(i) <- serve_client ~port ~reqs ~queries i) ())
  in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  Serve.Server.stop srv;
  Thread.join th;
  let lats =
    Array.concat (Array.to_list (Array.map (fun (l, _, _) -> l) out))
  in
  Array.sort compare lats;
  let sheds = Array.fold_left (fun a (_, s, _) -> a + s) 0 out in
  let errs = Array.fold_left (fun a (_, _, e) -> a + e) 0 out in
  let mean_ms =
    if Array.length lats = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 lats /. float_of_int (Array.length lats)
  in
  let counter n =
    Option.value ~default:0
      (List.assoc_opt n (Observe.Metrics.counters metrics))
  in
  let g = nb.Mc_io.Parse.graph in
  Printf.printf
    "%-10s clients=%d reqs=%d ok=%d mean=%.3fms p95=%.3fms shed=%d \
     degraded=%d errors=%d\n\
     %!"
    name clients (clients * reqs) (Array.length lats) mean_ms
    (serve_percentile lats 95.0) sheds
    (counter "serve.degraded") errs;
  rows :=
    !rows
    @ [
        ( Printf.sprintf "serve/%s/c%d" name clients,
          mean_ms *. 1e6,
          [
            ("impl", Observe.Json.Jstr name);
            ("n", Observe.Json.Jnum (float_of_int (Bigraph.n g)));
            ("m", Observe.Json.Jnum (float_of_int (Bigraph.m g)));
            ("mean_ms", Observe.Json.Jnum mean_ms);
            ("p50_ms", Observe.Json.Jnum (serve_percentile lats 50.0));
            ("p95_ms", Observe.Json.Jnum (serve_percentile lats 95.0));
            ("p99_ms", Observe.Json.Jnum (serve_percentile lats 99.0));
            ("clients", Observe.Json.Jnum (float_of_int clients));
            ("admitted", Observe.Json.Jnum (float_of_int (Array.length lats)));
            ("shed", Observe.Json.Jnum (float_of_int sheds));
            ( "degraded",
              Observe.Json.Jnum (float_of_int (counter "serve.degraded")) );
            ("errors", Observe.Json.Jnum (float_of_int errs));
            ( "throughput_rps",
              Observe.Json.Jnum
                (if wall_s > 0.0 then float_of_int (Array.length lats) /. wall_s
                 else 0.0) );
          ] );
      ]

let serve_section ~trials ~max_n ~json_path () =
  header "serve: closed-loop load over the network service (ms/request)";
  (* A G(n,p) instance outside the structured classes, so pressure-mode
     fuel actually forces the ladder down to cheaper rungs and the
     overload profile's degraded count is non-trivial. *)
  let n_right = min 24 (max 8 (max_n / 8)) in
  let rng = trial ~section:"serve-graph" n_right in
  let g = Workloads.Gen_bipartite.gnp rng ~nl:n_right ~nr:n_right ~p:0.3 in
  let nb =
    {
      Mc_io.Parse.graph = g;
      left_names = Array.init (Bigraph.nl g) (Printf.sprintf "L%d");
      right_names = Array.init (Bigraph.nr g) (Printf.sprintf "R%d");
    }
  in
  let reqs = 25 * trials in
  let rows = ref [] in
  serve_profile ~name:"nominal" ~clients:4 ~reqs
    ~config:
      {
        Serve.Server.default_config with
        Serve.Server.port = 0;
        max_inflight = 16;
        degrade_watermark = 16;
      }
    nb rows;
  serve_profile ~name:"overload" ~clients:8 ~reqs
    ~config:
      {
        Serve.Server.default_config with
        Serve.Server.port = 0;
        max_inflight = 2;
        degrade_watermark = 1;
        pressure_fuel = 16;
      }
    nb rows;
  write_bench_json ~section:"serve" ~trials ~max_n ~path:json_path !rows

(* ------------------------------------------------------------------ *)
(* Section: evolve                                                     *)
(* ------------------------------------------------------------------ *)

(* Incremental schema evolution vs recompile-from-scratch. The schema
   is a disjoint union of B structured blocks — the live-schema shape
   component-scoped recompilation is built for — and a batch of k
   single-edge deltas dirties k distinct blocks, so apply_deltas
   recompiles k components and reuses the other B-k verbatim. The
   headline check backs the tentpole: one single-edge delta must cost
   at most 0.2x the full recompile once the schema is big enough
   (n >= 100). The batch axis then sweeps k up to B to locate the
   crossover where patching stops paying and recompiling from scratch
   wins; each row records its batch size and measured recompiled
   count so the trajectory file carries the whole curve. *)

let evolve_union gen ~blocks =
  let edges = ref [] and picks = ref [] in
  let nl = ref 0 and nr = ref 0 in
  for b = 0 to blocks - 1 do
    let g = gen b in
    let lo = !nl and ro = !nr in
    let es = Bigraph.edges g in
    (match es with
    | (i, j) :: _ -> picks := (i + lo, j + ro) :: !picks
    | [] -> ());
    List.iter (fun (i, j) -> edges := (i + lo, j + ro) :: !edges) es;
    nl := !nl + Bigraph.nl g;
    nr := !nr + Bigraph.nr g
  done;
  (Bigraph.of_edges ~nl:!nl ~nr:!nr (List.rev !edges), List.rev !picks)

let evolve_section ~trials ~max_n ~json_path () =
  header "evolve: delta patch vs recompile-from-scratch (ms)";
  Printf.printf "%-12s %-10s %6s %8s %6s %12s\n" "section" "impl" "|V|" "|E|"
    "batch" "mean ms";
  let rows = ref [] in
  let singles = ref [] in
  let ok_apply compiled ops =
    match Minconn.Compiled.apply_deltas compiled ops with
    | Ok (c, stats) -> (c, stats)
    | Error msg -> failwith ("evolve apply_deltas: " ^ msg)
  in
  let bench_workload ~section g picks =
    let blocks = List.length picks in
    let n = Bigraph.n g and m = Bigraph.m g in
    let compiled = Minconn.Compiled.compile g in
    let row ~impl ~batch ~recompiled ms =
      Printf.printf "%-12s %-10s %6d %8d %6d %12.4f\n%!" section impl n m
        batch ms;
      let name, ns, extras = timed_entry ~section ~impl ~n ~m ~ms in
      rows :=
        !rows
        @ [
            ( name,
              ns,
              extras
              @ [
                  ("batch", Observe.Json.Jnum (float_of_int batch));
                  ( "recompiled_components",
                    Observe.Json.Jnum (float_of_int recompiled) );
                ] );
          ]
    in
    (* Recompile baseline: the evolved schema built from scratch, the
       cost every delta batch is competing against. *)
    let target =
      match
        Minconn.Delta.apply_all g
          (List.map (fun (i, j) -> Minconn.Delta.Remove_edge (i, j)) picks)
      with
      | Ok g' -> g'
      | Error msg -> failwith ("evolve apply_all: " ^ msg)
    in
    let t_full =
      time_mean ~trials (fun () ->
          ignore (Sys.opaque_identity (Minconn.Compiled.compile target)))
    in
    row ~impl:"recompile" ~batch:blocks ~recompiled:blocks t_full;
    let crossover = ref None in
    let rec batches k = if k >= blocks then [ blocks ] else k :: batches (2 * k) in
    List.iter
      (fun k ->
        let ops =
          List.filteri (fun i _ -> i < k) picks
          |> List.map (fun (i, j) -> Minconn.Delta.Remove_edge (i, j))
        in
        let _, stats = ok_apply compiled ops in
        let recompiled =
          List.length
            (List.sort_uniq compare
               (List.concat_map
                  (fun (s : Minconn.Compiled.delta_stats) -> s.recompiled)
                  stats))
        in
        let ms =
          time_mean ~trials (fun () ->
              ignore (Sys.opaque_identity (ok_apply compiled ops)))
        in
        row ~impl:(Printf.sprintf "patch-k%d" k) ~batch:k ~recompiled ms;
        if k = 1 then singles := (section, n, ms, t_full) :: !singles;
        if !crossover = None && ms >= t_full then crossover := Some k)
      (batches 1);
    Printf.printf "-- %-10s n=%-4d crossover batch: %s (of %d blocks)\n"
      section n
      (match !crossover with
      | Some k -> string_of_int k
      | None -> Printf.sprintf "> %d" blocks)
      blocks
  in
  (* At least 8 blocks: one block must be a small enough fraction of
     the schema for the 0.2x single-delta headline to have headroom. *)
  let block_sizes = List.filter (fun b -> b * 12 <= max_n) [ 8; 16; 32 ] in
  List.iter
    (fun blocks ->
      let g, picks =
        evolve_union ~blocks (fun b ->
            Workloads.Gen_bipartite.chordal_62
              (trial ~section:"evolve-62" ((blocks * 100) + b))
              ~n_right:12 ~max_size:5)
      in
      bench_workload ~section:"chordal62" g picks)
    block_sizes;
  List.iter
    (fun blocks ->
      let g, picks =
        evolve_union ~blocks (fun b ->
            Workloads.Gen_bipartite.alpha_bipartite
              (trial ~section:"evolve-alpha" ((blocks * 100) + b))
              ~n_right:12 ~max_size:5)
      in
      bench_workload ~section:"alpha" g picks)
    block_sizes;
  List.iter
    (fun (section, n, t1, t_full) ->
      let ratio = if t_full > 0.0 then t1 /. t_full else 1.0 in
      if n >= 100 then
        Printf.printf
          "-- %-10s n=%-4d patch/recompile = %.4f (must be <= 0.2)%s\n"
          section n ratio
          (if ratio <= 0.2 then "" else "  NOT PROFITABLE")
      else
        Printf.printf
          "-- %-10s n=%-4d patch/recompile = %.4f (below threshold size)\n"
          section n ratio)
    (List.rev !singles);
  write_bench_json ~section:"evolve" ~trials ~max_n ~path:json_path !rows

(* ------------------------------------------------------------------ *)
(* Section: scale                                                      *)
(* ------------------------------------------------------------------ *)

(* Million-node construction / compile / query pass over the streaming
   Gen_scale families. Each (family, n) point times:

     construct-direct — edge stream -> CSR ([Bigraph.of_edge_iter]),
       the direct path, with edges/sec throughput;
     compile          — [Compiled.compile] off the graph's CSR;
     query-warm       — an 8-query in-block burst on one session.
       Queries run on their component's slice, so no whole-graph set
       view is ever derived.

   Every row carries a [peak_heap_words] extra from [Gc.quick_stat] —
   the process heap high-water mark, monotone across rows, so within
   one run each row bounds the memory its stage needed (methodology in
   EXPERIMENTS.md). The ladder has its own cap ([--scale-max-n],
   default 10^6) independent of the global [--max-n], which other
   sections keep in the hundreds. *)

let scale_families =
  [
    Workloads.Gen_scale.Forest;
    Workloads.Gen_scale.Chordal62;
    Workloads.Gen_scale.Alpha;
  ]

let scale_section ~trials ~scale_max_n ~json_path () =
  header "scale: stream-to-CSR construction, compile and warm queries";
  let ladder =
    match List.filter (fun x -> x <= scale_max_n) [ 100_000; 1_000_000 ] with
    | [] -> [ max 1_000 scale_max_n ]
    | l -> l
  in
  let rows = ref [] in
  let peak () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words in
  let entry ~family ~kind ~n ~m ~ms extras =
    let name, ns, base =
      timed_entry ~section:"scale" ~impl:(family ^ "/" ^ kind) ~n ~m ~ms
    in
    rows :=
      !rows
      @ [
          ( name,
            ns,
            base
            @ ("peak_heap_words", Observe.Json.Jnum (peak ())) :: extras );
        ]
  in
  List.iter
    (fun fam ->
      let fname = Workloads.Gen_scale.family_name fam in
      List.iter
        (fun target ->
          let inst = Workloads.Gen_scale.make fam ~target_n:target ~seed:2026 in
          let n = Workloads.Gen_scale.n inst in
          let m = Workloads.Gen_scale.m inst in
          let eps ms =
            ( "edges_per_sec",
              Observe.Json.Jnum
                (if ms > 0.0 then float_of_int m /. (ms /. 1000.0) else 0.0) )
          in
          (* Construction is orders of magnitude cheaper to time than
             compile, and on a 1-core host a major collection of the
             *previous* rung's plan garbage landing inside the timed
             region skews the row by an order of magnitude — so each
             construct row starts from a compacted heap and gets at
             least 5 trials of its own. *)
          let ctrials = max trials 5 in
          Gc.compact ();
          let ms_direct =
            time_mean ~trials:ctrials (fun () ->
                Workloads.Gen_scale.to_bigraph inst)
          in
          entry ~family:fname ~kind:"construct-direct" ~n ~m ~ms:ms_direct
            [ eps ms_direct ];
          let g = Workloads.Gen_scale.to_bigraph inst in
          let ms_compile =
            time_mean ~trials (fun () -> Minconn.Compiled.compile g)
          in
          let plan = Minconn.Compiled.compile g in
          entry ~family:fname ~kind:"compile" ~n ~m ~ms:ms_compile
            [
              ( "components",
                Observe.Json.Jnum
                  (float_of_int (Minconn.Compiled.n_components plan)) );
            ];
          let blocks = Workloads.Gen_scale.n_blocks inst in
          let queries =
            List.init 8 (fun i ->
                Workloads.Gen_scale.block_terminals inst
                  ~block:(i * blocks / 8) ~k:3)
          in
          let run_queries s =
            List.iter
              (fun p ->
                match Minconn.Session.query s ~p with
                | Ok _ -> ()
                | Error _ -> failwith "scale bench: query failed")
              queries
          in
          let s = Minconn.Session.create plan in
          let ms_warm = time_mean ~trials (fun () -> run_queries s) in
          entry ~family:fname ~kind:"query-warm" ~n ~m ~ms:ms_warm [];
          Printf.printf
            "%-9s n=%-8d m=%-8d direct=%.1fms compile=%.1fms warm=%.3fms\n%!"
            fname n m ms_direct ms_compile ms_warm)
        ladder)
    scale_families;
  write_bench_json ~section:"scale" ~trials ~max_n:scale_max_n ~path:json_path
    !rows

(* ------------------------------------------------------------------ *)
(* Section: frontend                                                   *)
(* ------------------------------------------------------------------ *)

(* The CLI's file front end on its own: [Parse.bigraph_of_string] on
   scale-chordal62 text exactly as [minconn generate] writes it
   (a0.../r0... names, name lines cut under the line cap), from the
   string to the named CSR graph. One row per rung of the 10^3, 10^4,
   10^5 ladder, capped by [--scale-max-n] like the scale section's;
   every row carries the input size and an edges_per_sec throughput
   extra. *)
let frontend_section ~trials ~scale_max_n ~json_path () =
  header "frontend: schema text -> named CSR graph (Parse.bigraph_of_string)";
  let ladder =
    match
      List.filter (fun x -> x <= scale_max_n) [ 1_000; 10_000; 100_000 ]
    with
    | [] -> [ 1_000 ]
    | l -> l
  in
  let rows =
    List.map
      (fun target ->
        let inst =
          Workloads.Gen_scale.make Workloads.Gen_scale.Chordal62
            ~target_n:target ~seed:2026
        in
        let graph = Workloads.Gen_scale.to_bigraph inst in
        let text =
          Mc_io.Parse.bigraph_to_string
            {
              Mc_io.Parse.graph;
              left_names =
                Array.init (Bigraph.nl graph) (fun i -> Printf.sprintf "a%d" i);
              right_names =
                Array.init (Bigraph.nr graph) (fun j -> Printf.sprintf "r%d" j);
            }
        in
        let n = Bigraph.n graph and m = Bigraph.m graph in
        let ms =
          time_mean ~trials (fun () ->
              match Mc_io.Parse.bigraph_of_string text with
              | Ok nb -> nb
              | Error e ->
                Format.kasprintf failwith "frontend bench: %a"
                  Mc_io.Parse.pp_error e)
        in
        let eps = if ms > 0.0 then float_of_int m /. (ms /. 1000.0) else 0.0 in
        Printf.printf
          "chordal62 n=%-7d m=%-7d bytes=%-8d parse=%.2fms (%.0f edges/s)\n%!" n
          m (String.length text) ms eps;
        let name, ns, base =
          timed_entry ~section:"frontend" ~impl:"chordal62/parse" ~n ~m ~ms
        in
        ( name,
          ns,
          base
          @ [
              ("bytes", Observe.Json.Jnum (float_of_int (String.length text)));
              ("edges_per_sec", Observe.Json.Jnum eps);
            ] ))
      ladder
  in
  write_bench_json ~section:"frontend" ~trials ~max_n:scale_max_n
    ~path:json_path rows

(* ------------------------------------------------------------------ *)

let () =
  let trials = ref 5 and max_n = ref 384 in
  let json_path = ref "BENCH_kernels.json" in
  let runtime_json_path = ref "BENCH_runtime.json" in
  let observe_json_path = ref "BENCH_observe.json" in
  let engine_json_path = ref "BENCH_engine.json" in
  let plancache_json_path = ref "BENCH_plancache.json" in
  let relalg_json_path = ref "BENCH_relalg.json" in
  let serve_json_path = ref "BENCH_serve.json" in
  let evolve_json_path = ref "BENCH_evolve.json" in
  let scale_json_path = ref "BENCH_scale.json" in
  let scale_max_n = ref 1_000_000 in
  let frontend_json_path = ref "BENCH_frontend.json" in
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "--trials" :: v :: rest ->
      trials := int_of_string v;
      parse_args acc rest
    | "--max-n" :: v :: rest ->
      max_n := int_of_string v;
      parse_args acc rest
    | "--json" :: v :: rest ->
      json_path := v;
      parse_args acc rest
    | "--runtime-json" :: v :: rest ->
      runtime_json_path := v;
      parse_args acc rest
    | "--observe-json" :: v :: rest ->
      observe_json_path := v;
      parse_args acc rest
    | "--engine-json" :: v :: rest ->
      engine_json_path := v;
      parse_args acc rest
    | "--plancache-json" :: v :: rest ->
      plancache_json_path := v;
      parse_args acc rest
    | "--relalg-json" :: v :: rest ->
      relalg_json_path := v;
      parse_args acc rest
    | "--serve-json" :: v :: rest ->
      serve_json_path := v;
      parse_args acc rest
    | "--evolve-json" :: v :: rest ->
      evolve_json_path := v;
      parse_args acc rest
    | "--scale-json" :: v :: rest ->
      scale_json_path := v;
      parse_args acc rest
    | "--scale-max-n" :: v :: rest ->
      scale_max_n := int_of_string v;
      parse_args acc rest
    | "--frontend-json" :: v :: rest ->
      frontend_json_path := v;
      parse_args acc rest
    | a :: rest -> parse_args (a :: acc) rest
  in
  let sections =
    [
      ("figures", figures_section);
      ( "tables",
        fun () ->
          table_t1 ();
          table_c1 ();
          table_h1 ();
          table_q2 ();
          table_c0 ();
          table_p1 ();
          table_w1 ();
          table_y1 () );
      ( "scaling",
        fun () ->
          scaling_t4 ();
          scaling_t5 ();
          scaling_q1 ();
          scaling_t2 () );
      ( "ablations",
        fun () ->
          ablation_a1 ();
          ablation_a2 ();
          ablation_a3 ();
          ablation_a4 ();
          ablation_d1 () );
      ("micro", micro_section);
      ( "kernels",
        fun () ->
          kernels_section ~trials:!trials ~max_n:!max_n
            ~scale_max_n:!scale_max_n ~json_path:!json_path () );
      ( "runtime",
        fun () ->
          runtime_section ~trials:!trials ~max_n:!max_n
            ~json_path:!runtime_json_path () );
      ( "observe",
        fun () ->
          observe_section ~trials:!trials ~max_n:!max_n
            ~json_path:!observe_json_path () );
      ( "engine",
        fun () ->
          engine_section ~trials:!trials ~max_n:!max_n
            ~scale_max_n:!scale_max_n
            ~json_path:!engine_json_path () );
      ( "plancache",
        fun () ->
          plancache_section ~trials:!trials ~max_n:!max_n
            ~json_path:!plancache_json_path () );
      ( "relalg",
        fun () ->
          relalg_section ~trials:!trials ~max_n:!max_n
            ~json_path:!relalg_json_path () );
      ( "serve",
        fun () ->
          serve_section ~trials:!trials ~max_n:!max_n
            ~json_path:!serve_json_path () );
      ( "evolve",
        fun () ->
          evolve_section ~trials:!trials ~max_n:!max_n
            ~json_path:!evolve_json_path () );
      ( "scale",
        fun () ->
          scale_section ~trials:!trials ~scale_max_n:!scale_max_n
            ~json_path:!scale_json_path () );
      ( "frontend",
        fun () ->
          frontend_section ~trials:!trials ~scale_max_n:!scale_max_n
            ~json_path:!frontend_json_path () );
    ]
  in
  let wanted = parse_args [] (List.tl (Array.to_list Sys.argv)) in
  let run (name, f) = if wanted = [] || List.mem name wanted then f () in
  List.iter run sections;
  Printf.printf "\nDone.\n"
