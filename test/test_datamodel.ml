(* Tests for the semantic data-model layer: schemas, ER schemes, the
   query interface and the end-to-end universal-relation pipeline. *)

open Graphs
open Datamodel

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let company_schema =
  Schema.make
    [
      ("works", [ "emp"; "dept" ]);
      ("located", [ "dept"; "floor" ]);
      ("managed", [ "floor"; "manager" ]);
    ]

(* ------------------------------------------------------------ Schema *)

let test_schema_basics () =
  check_int "attributes" 4 (List.length (Schema.attributes company_schema));
  check "attr lookup" true (Schema.object_index company_schema "emp" <> None);
  check "relation lookup" true
    (Schema.object_index company_schema "works" <> None);
  check "unknown lookup" true (Schema.object_index company_schema "zzz" = None);
  check "is_attribute" true
    (Schema.is_attribute company_schema "emp"
    && not (Schema.is_attribute company_schema "works"));
  (match Schema.object_index company_schema "works" with
  | Some v -> check "name round trip" true (Schema.object_name company_schema v = "works")
  | None -> Alcotest.fail "lookup");
  check "name clash rejected" true
    (try
       ignore (Schema.make [ ("r", [ "r" ]) ]);
       false
     with Invalid_argument _ -> true)

let test_schema_classification () =
  (* Chain schema: gamma-acyclic (Berge even: separators singleton). *)
  check "chain schema acyclicity" true
    (match Schema.acyclicity company_schema with
    | Hypergraphs.Acyclicity.Berge_acyclic | Hypergraphs.Acyclicity.Gamma_acyclic -> true
    | _ -> false);
  let p = Schema.profile company_schema in
  check "chain schema is (6,2)-chordal" true p.Bipartite.Classify.chordal_62

(* ------------------------------------------------------------- Query *)

let test_minimal_connection () =
  match Query.minimal_connection company_schema ~objects:[ "emp"; "manager" ] with
  | Ok c ->
    check "optimal" true c.Query.optimal;
    check "uses all three relations" true
      (List.sort compare c.Query.relations_used
      = [ "located"; "managed"; "works" ]);
    check "auxiliary objects reported" true
      (List.mem "dept" c.Query.auxiliary && List.mem "floor" c.Query.auxiliary)
  | Error _ -> Alcotest.fail "connected query"

let test_query_errors () =
  (match Query.minimal_connection company_schema ~objects:[ "nope" ] with
  | Error (Query.Unknown_object "nope") -> check "unknown object" true true
  | _ -> Alcotest.fail "expected Unknown_object");
  let disconnected = Schema.make [ ("r1", [ "a" ]); ("r2", [ "b" ]) ] in
  match Query.minimal_connection disconnected ~objects:[ "a"; "b" ] with
  | Error Query.Disconnected -> check "disconnected" true true
  | _ -> Alcotest.fail "expected Disconnected"

let triangle =
  Schema.make [ ("r1", [ "a"; "b" ]); ("r2", [ "b"; "c" ]); ("r3", [ "a"; "c" ]) ]

let test_empty_query () =
  (match Query.minimal_connection company_schema ~objects:[] with
  | Ok c ->
    check "no objects" true (c.Query.objects = [] && c.Query.tree_edges = []);
    check "vacuously optimal" true c.Query.optimal
  | Error _ -> Alcotest.fail "empty query answers the empty connection");
  match Query.min_relations company_schema ~objects:[] with
  | Ok (c, count) ->
    check "no objects" true (c.Query.objects = [] && c.Query.tree_edges = []);
    check_int "no relations" 0 count
  | Error _ -> Alcotest.fail "empty query answers the empty connection"

let test_min_relations_cyclic () =
  match Query.min_relations triangle ~objects:[ "a"; "c" ] with
  | Error (Query.Not_applicable "scheme hypergraph is not alpha-acyclic") ->
    ()
  | _ -> Alcotest.fail "triangle scheme is not alpha-acyclic"

(* A ring of ten binary relations is a chordless 20-cycle, neither
   (4,1)- nor (6,2)-chordal; eighteen objects exceed the exact DP's
   terminal cap, so the ladder answers on its heuristic rung. *)
let test_over_terminal_cap () =
  let attr i = Printf.sprintf "a%d" (i mod 10) in
  let ring =
    Schema.make
      (List.init 10 (fun i -> (Printf.sprintf "r%d" i, [ attr i; attr (i + 1) ])))
  in
  let objects =
    List.init 10 attr @ List.init 8 (fun i -> Printf.sprintf "r%d" i)
  in
  check "over the cap" true
    (List.length objects > Steiner.Dreyfus_wagner.max_terminals);
  match Query.minimal_connection ring ~objects with
  | Ok c ->
    check "heuristic rung" false c.Query.optimal;
    check "covers the query" true
      (List.for_all (fun o -> List.mem o c.Query.objects) objects)
  | Error _ -> Alcotest.fail "connected query"

let test_min_relations () =
  match Query.min_relations company_schema ~objects:[ "emp"; "floor" ] with
  | Ok (c, count) ->
    check_int "two relations suffice" 2 count;
    check "optimal flag" true c.Query.optimal
  | Error _ -> Alcotest.fail "alpha-acyclic schema"

let test_weighted_connection () =
  (* Price the 'located' relation prohibitively: there is no other
     route, so the connection still uses it but reports the cost. *)
  let cost = function "located" -> 50 | _ -> 1 in
  match
    Query.weighted_connection company_schema ~objects:[ "emp"; "manager" ]
      ~cost
  with
  | Ok (c, total) ->
    check "still routes through located (no alternative)" true
      (List.mem "located" c.Query.relations_used);
    check_int "cost accounts for the expensive relation" (6 + 50) total
  | Error _ -> Alcotest.fail "connected"

(* Every cost function gets an answer or a typed error: on the path
   a – r – b, a negative cost, one cost at [max_int / 4] and costs
   summing above the DP's cap are [Not_applicable], never an exception
   or a false [Disconnected]. *)
let test_weighted_connection_total () =
  let path = Schema.make [ ("r", [ "a"; "b" ]) ] in
  let answer cost =
    Query.weighted_connection path ~objects:[ "a"; "b" ] ~cost
  in
  let not_applicable cost =
    match answer cost with Error (Query.Not_applicable _) -> true | _ -> false
  in
  check "negative cost" true (not_applicable (fun _ -> -1));
  check "cost max_int / 4" true
    (not_applicable (function "r" -> max_int / 4 | _ -> 1));
  check "total above max_total_weight" true
    (not_applicable (fun _ -> (Steiner.Dreyfus_wagner.max_total_weight / 3) + 1));
  match answer (function "r" -> 5 | _ -> 0) with
  | Ok (c, total) ->
    check_int "zero-cost ends, relation priced" 5 total;
    check "uses r" true (c.Query.relations_used = [ "r" ])
  | Error _ -> Alcotest.fail "connected"

let test_interpretations_ranked () =
  let interps =
    Query.interpretations ~k:3 company_schema ~objects:[ "emp"; "dept" ]
  in
  check "at least one" true (interps <> []);
  let sizes = List.map (fun c -> List.length c.Query.objects) interps in
  check "sorted by size" true (List.sort compare sizes = sizes)

let test_unambiguous () =
  (* Chain schema: the path between end attributes is unique. *)
  (match Query.is_unambiguous company_schema ~objects:[ "emp"; "manager" ] with
  | Ok b -> check "chain query is unambiguous" true b
  | Error _ -> Alcotest.fail "resolvable");
  (* A diamond: two same-size routes between a and c. *)
  let diamond =
    Schema.make
      [
        ("r1", [ "a"; "b" ]); ("r2", [ "b"; "c" ]);
        ("r3", [ "a"; "d" ]); ("r4", [ "d"; "c" ]);
      ]
  in
  match Query.is_unambiguous diamond ~objects:[ "a"; "c" ] with
  | Ok b -> check "diamond query is ambiguous" false b
  | Error _ -> Alcotest.fail "resolvable"

(* ---------------------------------------------------------------- ER *)

let test_er_validation () =
  check "unknown entity rejected" true
    (try
       ignore
         (Er.make ~entities:[ ("E", [ "a" ]) ]
            ~relationships:[ ("R", [ "F" ], []) ]);
       false
     with Invalid_argument _ -> true);
  check "duplicate name rejected" true
    (try
       ignore (Er.make ~entities:[ ("E", [ "E" ]) ] ~relationships:[]);
       false
     with Invalid_argument _ -> true)

let test_er_connection () =
  let er = Figures.fig1_er in
  (match Er.minimal_connection er ~objects:[ "DEPARTMENT"; "NAME" ] with
  | Ok (nodes, edges) ->
    check "route through WORKS and EMPLOYEE" true
      (List.mem "WORKS" nodes && List.mem "EMPLOYEE" nodes);
    check_int "tree edge count" (List.length nodes - 1) (List.length edges)
  | Error _ -> Alcotest.fail "connected ER scheme");
  match Er.minimal_connection er ~objects:[ "DEPARTMENT"; "nope" ] with
  | Ok _ -> Alcotest.fail "unknown object must be a typed error"
  | Error (Runtime.Errors.Invalid_instance _) -> ()
  | Error _ -> Alcotest.fail "expected Invalid_instance"

(* -------------------------------------------------------- Edge cases *)

let test_query_edge_cases () =
  (* Duplicate names in the query collapse. *)
  (match
     Query.minimal_connection company_schema ~objects:[ "emp"; "emp"; "dept" ]
   with
  | Ok c -> check "duplicates tolerated" true (List.mem "emp" c.Query.objects)
  | Error _ -> Alcotest.fail "resolvable");
  (* Query naming only a relation. *)
  (match Query.minimal_connection company_schema ~objects:[ "works" ] with
  | Ok c ->
    check "single-relation query" true (c.Query.objects = [ "works" ])
  | Error _ -> Alcotest.fail "resolvable");
  (* Empty query: trivially connected. *)
  match Query.minimal_connection company_schema ~objects:[] with
  | Ok c -> check "empty query gives empty connection" true (c.Query.objects = [])
  | Error _ -> Alcotest.fail "empty query"

let test_schema_bigraph_hypergraph_agree () =
  (* The two scheme views coincide through Definition 2. *)
  let g = Schema.to_bigraph company_schema in
  let h = Schema.to_hypergraph company_schema in
  check "h1 of the bigraph = the hypergraph" true
    (Hypergraphs.Hypergraph.equal_modulo_order (Bipartite.Correspond.h1_exn g) h)

(* ------------------------------------------------------------ Corpus *)

let test_corpus_degrees () =
  let degree name =
    Hypergraphs.Acyclicity.degree_name
      (Schema.acyclicity (List.assoc name Corpus.all))
  in
  Alcotest.(check string) "tpch is cyclic" "cyclic" (degree "tpch");
  Alcotest.(check string) "university is cyclic" "cyclic" (degree "university");
  Alcotest.(check string) "airline is Berge" "Berge-acyclic" (degree "airline");
  Alcotest.(check string) "snowflake is Berge" "Berge-acyclic"
    (degree "snowflake")

let test_corpus_queries () =
  (* Every corpus schema answers a cross-schema query; acyclic ones
     optimally. *)
  List.iter
    (fun (name, schema) ->
      let attrs = Schema.attributes schema in
      let a = List.hd attrs and z = List.hd (List.rev attrs) in
      match Query.minimal_connection schema ~objects:[ a; z ] with
      | Ok c ->
        check (name ^ " connection covers the query") true
          (List.mem a c.Query.objects && List.mem z c.Query.objects)
      | Error Query.Disconnected -> ()
      | Error _ -> Alcotest.fail (name ^ ": unexpected error"))
    Corpus.all

let test_corpus_repair () =
  (* The cyclic schemas admit small deletion repairs. *)
  match Repair.min_deletions ~max_k:3 Corpus.university Repair.To_alpha with
  | Some deleted ->
    check "university repairable within 3 deletions" true
      (List.length deleted <= 3 && deleted <> [])
  | None -> Alcotest.fail "university should be repairable"

(* ------------------------------------------------------------ Repair *)

let triangle_schema =
  Schema.make
    [ ("r1", [ "a"; "b" ]); ("r2", [ "b"; "c" ]); ("r3", [ "a"; "c" ]) ]

let test_repair_deletions () =
  (match Repair.min_deletions triangle_schema Repair.To_alpha with
  | Some deleted ->
    check_int "one deletion opens the triangle" 1 (List.length deleted)
  | None -> Alcotest.fail "triangle is repairable");
  check "already-satisfied goal needs zero deletions" true
    (Repair.min_deletions company_schema Repair.To_gamma = Some []);
  let covered =
    Schema.make
      [
        ("r1", [ "a"; "b" ]); ("r2", [ "b"; "c" ]); ("r3", [ "a"; "c" ]);
        ("all", [ "a"; "b"; "c" ]);
      ]
  in
  check "covered triangle is alpha already" true
    (Repair.satisfies covered Repair.To_alpha);
  match Repair.min_deletions covered Repair.To_gamma with
  | Some deleted ->
    check_int "two deletions reach gamma" 2 (List.length deleted)
  | None -> Alcotest.fail "repairable"

let test_repair_merges () =
  let merges = Repair.merge_suggestions triangle_schema Repair.To_alpha in
  check "merging any two triangle relations works" true
    (List.length merges = 3);
  check "report mentions the degree" true
    (String.length (Repair.report triangle_schema) > 0)

(* ----------------------------------------------------------- Layered *)

let hierarchy =
  Layered.make
    ~levels:
      [ [ "a"; "b"; "c" ]; [ "e1"; "e2" ]; [ "r1" ] ]
    ~definitions:
      [ ("e1", [ "a"; "b" ]); ("e2", [ "b"; "c" ]); ("r1", [ "e1"; "e2" ]) ]

let test_layered_validation () =
  check "skipping a level rejected" true
    (try
       ignore
         (Layered.make
            ~levels:[ [ "a" ]; [ "e" ]; [ "r" ] ]
            ~definitions:[ ("e", [ "a" ]); ("r", [ "a" ]) ]);
       false
     with Invalid_argument _ -> true);
  check "missing definition rejected" true
    (try
       ignore (Layered.make ~levels:[ [ "a" ]; [ "e" ] ] ~definitions:[]);
       false
     with Invalid_argument _ -> true);
  check "level-0 definition rejected" true
    (try
       ignore
         (Layered.make ~levels:[ [ "a" ] ] ~definitions:[ ("a", [ "a" ]) ]);
       false
     with Invalid_argument _ -> true)

let test_layered_structure () =
  check_int "levels" 3 (Layered.n_levels hierarchy);
  check "level lookup" true (Layered.level_of hierarchy "r1" = Some 2);
  let g = Layered.to_bigraph hierarchy in
  (* Even levels (a,b,c,r1) left; odd (e1,e2) right. *)
  check_int "left side" 4 (Bipartite.Bigraph.nl g);
  check_int "right side" 2 (Bipartite.Bigraph.nr g);
  check_int "edges = total definition size" 6 (Bipartite.Bigraph.m g);
  (match Layered.object_index hierarchy "e2" with
  | Some v -> check "name round trip" true (Layered.object_name hierarchy v = "e2")
  | None -> Alcotest.fail "lookup")

let test_layered_connection () =
  (match Layered.minimal_connection hierarchy ~objects:[ "a"; "c" ] with
  | Ok (nodes, _) ->
    check "route through e1 and e2" true
      (List.mem "e1" nodes && List.mem "e2" nodes)
  | Error _ -> Alcotest.fail "connected");
  (match Layered.minimal_connection hierarchy ~objects:[ "a"; "r1" ] with
  | Ok (nodes, edges) ->
    check_int "tree shape" (List.length nodes - 1) (List.length edges)
  | Error _ -> Alcotest.fail "connected");
  (* The DP runs on the schema's CSR, whose rows are canonical: every
     answer is the set-view DP's tree, edge for edge. *)
  let u = Bipartite.Bigraph.ugraph (Layered.to_bigraph hierarchy) in
  let names = [ "a"; "b"; "c"; "e1"; "e2"; "r1" ] in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          let objects = [ x; y ] in
          let p =
            Iset.of_list
              (List.filter_map (Layered.object_index hierarchy) objects)
          in
          let want =
            Option.map
              (fun t ->
                ( List.map (Layered.object_name hierarchy)
                    (Iset.elements t.Steiner.Tree.nodes),
                  List.map
                    (fun (v, w) ->
                      ( Layered.object_name hierarchy v,
                        Layered.object_name hierarchy w ))
                    t.Steiner.Tree.edges ))
              (Steiner.Dreyfus_wagner.solve u ~terminals:p)
          in
          check
            (Printf.sprintf "%s,%s = set-view DP" x y)
            true
            (Result.to_option (Layered.minimal_connection hierarchy ~objects)
            = want))
        names)
    names;
  match Layered.minimal_connection hierarchy ~objects:[ "a"; "zzz" ] with
  | Ok _ -> Alcotest.fail "unknown object must be a typed error"
  | Error (Runtime.Errors.Invalid_instance _) -> ()
  | Error _ -> Alcotest.fail "expected Invalid_instance"

let test_layered_duplicate_definition () =
  (* A duplicate definition entry used to bypass validation (only the
     first assoc match was checked) and crash [to_bigraph]. *)
  check "duplicate definition rejected" true
    (try
       ignore
         (Layered.make
            ~levels:[ [ "a" ]; [ "b" ] ]
            ~definitions:[ ("b", [ "a" ]); ("b", [ "zzz" ]) ]);
       false
     with Invalid_argument _ -> true)

let test_er_to_schema () =
  let schema = Er.to_schema Figures.fig1_er in
  check "three relations" true
    (List.sort compare (Schema.relation_names schema)
    = [ "DEPARTMENT"; "EMPLOYEE"; "WORKS" ]);
  check "shared DATE attribute appears once" true
    (List.mem "DATE" (Schema.attributes schema));
  (* The two Fig 1 interpretations survive the relational mapping:
     DATE connects to both EMPLOYEE and WORKS. *)
  let interps = Query.interpretations ~k:3 schema ~objects:[ "EMPLOYEE"; "DATE" ] in
  check "at least two readings" true (List.length interps >= 2)

(* ---------------------------------------------------------- Dialogue *)

let test_dialogue_flow () =
  let d = Dialogue.start company_schema ~objects:[ "emp"; "manager" ] in
  (match Dialogue.current d with
  | Dialogue.Proposing c -> check "first proposal optimal" true c.Query.optimal
  | _ -> Alcotest.fail "expected a proposal");
  let d1 = Dialogue.step d Dialogue.Accept in
  (match Dialogue.current d1 with
  | Dialogue.Settled _ -> check "accepted" true true
  | _ -> Alcotest.fail "expected settled");
  check "settled is final" true (Dialogue.step d1 Dialogue.Reject == d1);
  (* Reject everything: eventually exhausted, disclosures grow. *)
  let rec drain d steps =
    match Dialogue.current d with
    | Dialogue.Proposing _ when steps < 20 ->
      drain (Dialogue.step d Dialogue.Reject) (steps + 1)
    | _ -> d
  in
  let dd = drain d 0 in
  (match Dialogue.current dd with
  | Dialogue.Exhausted -> check "exhausted after rejections" true true
  | _ -> Alcotest.fail "expected exhaustion");
  check "transcript recorded" true (List.length (Dialogue.transcript dd) >= 1)

let test_dialogue_errors () =
  let d = Dialogue.start company_schema ~objects:[ "nope" ] in
  match Dialogue.current d with
  | Dialogue.Failed (Query.Unknown_object "nope") -> check "failed" true true
  | _ -> Alcotest.fail "expected failure"

(* --------------------------------------------------------- Interface *)

let db =
  Relalg.Database.make
    [
      ( "works",
        Relalg.Relation.make ~attrs:[ "emp"; "dept" ]
          [ [ "alice"; "toys" ]; [ "bob"; "books" ] ] );
      ( "located",
        Relalg.Relation.make ~attrs:[ "dept"; "floor" ]
          [ [ "toys"; "1" ]; [ "books"; "2" ] ] );
      ( "managed",
        Relalg.Relation.make ~attrs:[ "floor"; "manager" ]
          [ [ "1"; "zoe" ]; [ "2"; "yann" ] ] );
    ]

let test_universal_relation_answer () =
  match Interface.answer db ~query:[ "emp"; "manager" ] with
  | Ok a ->
    check "all three relations chosen" true
      (List.length a.Interface.connection.Query.relations_used = 3);
    check "evaluates to employee-manager pairs" true
      (Relalg.Relation.equal a.Interface.result
         (Relalg.Relation.make ~attrs:[ "emp"; "manager" ]
            [ [ "alice"; "zoe" ]; [ "bob"; "yann" ] ]))
  | Error _ -> Alcotest.fail "answerable query"

let test_single_attribute_query () =
  match Interface.answer db ~query:[ "dept" ] with
  | Ok a ->
    check_int "two departments" 2 (Relalg.Relation.cardinality a.Interface.result)
  | Error _ -> Alcotest.fail "single attribute answerable"

let test_where_clause () =
  (* A one-node connection is evaluated over a fallback relation; the
     selection applies there too. *)
  (match Interface.answer db ~query:[ "dept" ] ~where:[ ("dept", "toys") ] with
  | Ok a ->
    check "selection on the fallback relation" true
      (Relalg.Relation.equal a.Interface.result
         (Relalg.Relation.make ~attrs:[ "dept" ] [ [ "toys" ] ]))
  | Error _ -> Alcotest.fail "single attribute answerable");
  match
    Interface.answer db ~query:[ "emp" ] ~where:[ ("manager", "zoe") ]
  with
  | Ok a ->
    check "filter routes through the manager relation" true
      (List.mem "managed" a.Interface.connection.Query.relations_used);
    check "only zoe's employee remains" true
      (Relalg.Relation.equal a.Interface.result
         (Relalg.Relation.make ~attrs:[ "emp" ] [ [ "alice" ] ]))
  | Error _ -> Alcotest.fail "filtered query answerable"

let test_interface_interpretations () =
  let answers = Interface.interpretations ~k:2 db ~query:[ "emp"; "floor" ] in
  check "at least one interpretation" true (answers <> []);
  List.iter
    (fun a ->
      check "each result has the right columns" true
        (List.sort compare (Relalg.Relation.attrs a.Interface.result)
        = [ "emp"; "floor" ]))
    answers

(* -------------------------------------------------------- properties *)

let interface_end_to_end =
  QCheck2.Test.make ~count:60
    ~name:"interface answer = naive evaluation over the chosen relations"
    QCheck2.Gen.(int_range 0 3000)
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let db = Workloads.Gen_db.acyclic rng ~n_relations:4 ~rows:8 in
      let attrs = Relalg.Database.attributes db in
      let query = Workloads.Rng.sample rng 2 attrs in
      match Interface.answer db ~query with
      | Error _ -> true
      | Ok a ->
        let chosen =
          List.filter
            (fun (n, _) ->
              List.mem n a.Interface.connection.Query.relations_used)
            (Relalg.Database.relations db)
        in
        chosen = []
        ||
        match
          Relalg.Yannakakis.evaluate_naive (Relalg.Database.make chosen)
            ~output:query
        with
        | Ok naive -> Relalg.Relation.equal a.Interface.result naive
        | Error _ -> false)

(* One relation r<j> per hyperedge j, over attributes a<i>. *)
let schema_of_hypergraph h =
  let attr i = Printf.sprintf "a%d" i in
  Schema.make
    (Array.to_list (Hypergraphs.Hypergraph.edges h)
    |> List.mapi (fun j e ->
           (Printf.sprintf "r%d" j, List.map attr (Iset.elements e))))

let dialogue_sizes_nondecreasing =
  QCheck2.Test.make ~count:50
    ~name:"dialogue proposals come in nondecreasing size"
    QCheck2.Gen.(int_range 0 2000)
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let schema =
        schema_of_hypergraph
          (Workloads.Gen_hyper.gamma_acyclic rng ~n_edges:5 ~max_size:3)
      in
      let attrs = Schema.attributes schema in
      let objects = Workloads.Rng.sample rng 2 attrs in
      let rec sizes d acc =
        match Dialogue.current d with
        | Dialogue.Proposing c ->
          sizes (Dialogue.step d Dialogue.Reject)
            (List.length c.Query.objects :: acc)
        | _ -> List.rev acc
      in
      let l = sizes (Dialogue.start schema ~objects) [] in
      List.sort compare l = l)

let qcheck_cases =
  let schema_gen =
    QCheck2.Gen.(
      int_range 0 5000
      |> map (fun seed ->
             let rng = Workloads.Rng.make ~seed in
             schema_of_hypergraph
               (Workloads.Gen_hyper.gamma_acyclic rng ~n_edges:5 ~max_size:3)))
  in
  [
    interface_end_to_end;
    dialogue_sizes_nondecreasing;
    QCheck2.Test.make ~count:100
      ~name:"gamma-acyclic schemas classify as (6,2) and answer optimally"
      QCheck2.Gen.(tup2 schema_gen (int_range 0 1000))
      (fun (schema, s) ->
        let attrs = Schema.attributes schema in
        let rng = Workloads.Rng.make ~seed:s in
        let objs = Workloads.Rng.sample rng 2 attrs in
        match Query.minimal_connection schema ~objects:objs with
        | Ok c -> c.Query.optimal
        | Error Query.Disconnected -> true
        | Error _ -> false);
    QCheck2.Test.make ~count:100
      ~name:"connection objects always contain the query" 
      QCheck2.Gen.(tup2 schema_gen (int_range 0 1000))
      (fun (schema, s) ->
        let attrs = Schema.attributes schema in
        let rng = Workloads.Rng.make ~seed:s in
        let objs = Workloads.Rng.sample rng 3 attrs in
        match Query.minimal_connection schema ~objects:objs with
        | Ok c -> List.for_all (fun o -> List.mem o c.Query.objects) objs
        | Error Query.Disconnected -> true
        | Error _ -> false);
    QCheck2.Test.make ~count:80
      ~name:"min_relations count <= relations used by minimal connection"
      QCheck2.Gen.(tup2 schema_gen (int_range 0 1000))
      (fun (schema, s) ->
        let attrs = Schema.attributes schema in
        let rng = Workloads.Rng.make ~seed:s in
        let objs = Workloads.Rng.sample rng 2 attrs in
        match
          (Query.min_relations schema ~objects:objs,
           Query.minimal_connection schema ~objects:objs)
        with
        | Ok (_, count), Ok c ->
          count <= List.length c.Query.relations_used
        | Error Query.Disconnected, _ | _, Error Query.Disconnected -> true
        | _ -> false);
    QCheck2.Test.make ~count:200
      ~name:"optimal answers have the Dreyfus-Wagner optimum size"
      QCheck2.Gen.(int_range 0 5000)
      (fun seed ->
        let rng = Workloads.Rng.make ~seed in
        let schema =
          schema_of_hypergraph
            (if seed mod 2 = 0 then
               Workloads.Gen_hyper.random rng ~n_nodes:7 ~n_edges:6 ~max_size:3
             else Workloads.Gen_hyper.alpha_acyclic rng ~n_edges:6 ~max_size:3)
        in
        let names = Schema.attributes schema @ Schema.relation_names schema in
        let objects =
          Workloads.Rng.sample rng (2 + Workloads.Rng.int rng 3) names
        in
        match Query.minimal_connection schema ~objects with
        | Error Query.Disconnected -> true
        | Error _ -> false
        | Ok c when not c.Query.optimal -> true
        | Ok c -> (
          match Query.terminals_of_objects schema objects with
          | Error _ -> false
          | Ok p ->
            Steiner.Dreyfus_wagner.optimum_nodes
              (Bipartite.Bigraph.ugraph (Schema.to_bigraph schema))
              ~terminals:p
            = Some (List.length c.Query.objects)));
    QCheck2.Test.make ~count:200
      ~name:"unit-cost weighted connection = unweighted DP tree"
      QCheck2.Gen.(int_range 0 5000)
      (fun seed ->
        let rng = Workloads.Rng.make ~seed in
        let schema =
          schema_of_hypergraph
            (if seed mod 2 = 0 then
               Workloads.Gen_hyper.random rng ~n_nodes:7 ~n_edges:6 ~max_size:3
             else Workloads.Gen_hyper.alpha_acyclic rng ~n_edges:6 ~max_size:3)
        in
        let names = Schema.attributes schema @ Schema.relation_names schema in
        let objects =
          Workloads.Rng.sample rng (1 + Workloads.Rng.int rng 4) names
        in
        match Query.terminals_of_objects schema objects with
        | Error _ -> false
        | Ok p -> (
          let dp =
            Steiner.Dreyfus_wagner.solve
              (Bipartite.Bigraph.ugraph (Schema.to_bigraph schema))
              ~terminals:p
          in
          match (Query.weighted_connection schema ~objects ~cost:(fun _ -> 1), dp) with
          | Error Query.Disconnected, None -> true
          | Ok (c, total), Some t ->
            c = Query.connection_of_tree schema ~query:p t ~optimal:true
            && total = Steiner.Tree.node_count t
          | _ -> false));
  ]

let () =
  Alcotest.run "datamodel"
    [
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "classification" `Quick test_schema_classification;
        ] );
      ( "query",
        [
          Alcotest.test_case "minimal connection" `Quick test_minimal_connection;
          Alcotest.test_case "errors" `Quick test_query_errors;
          Alcotest.test_case "empty query" `Quick test_empty_query;
          Alcotest.test_case "min relations on a cyclic scheme" `Quick
            test_min_relations_cyclic;
          Alcotest.test_case "over the terminal cap" `Quick
            test_over_terminal_cap;
          Alcotest.test_case "min relations" `Quick test_min_relations;
          Alcotest.test_case "weighted connection" `Quick test_weighted_connection;
          Alcotest.test_case "ranked interpretations" `Quick
            test_interpretations_ranked;
          Alcotest.test_case "unambiguous queries" `Quick test_unambiguous;
          Alcotest.test_case "weighted connection is total" `Quick
            test_weighted_connection_total;
        ] );
      ( "er",
        [
          Alcotest.test_case "validation" `Quick test_er_validation;
          Alcotest.test_case "connection" `Quick test_er_connection;
          Alcotest.test_case "to_schema" `Quick test_er_to_schema;
        ] );
      ( "dialogue",
        [
          Alcotest.test_case "flow" `Quick test_dialogue_flow;
          Alcotest.test_case "errors" `Quick test_dialogue_errors;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "query corner cases" `Quick test_query_edge_cases;
          Alcotest.test_case "scheme views agree" `Quick
            test_schema_bigraph_hypergraph_agree;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "degrees" `Quick test_corpus_degrees;
          Alcotest.test_case "queries" `Quick test_corpus_queries;
          Alcotest.test_case "repair" `Quick test_corpus_repair;
        ] );
      ( "repair",
        [
          Alcotest.test_case "deletions" `Quick test_repair_deletions;
          Alcotest.test_case "merges" `Quick test_repair_merges;
        ] );
      ( "layered",
        [
          Alcotest.test_case "validation" `Quick test_layered_validation;
          Alcotest.test_case "structure" `Quick test_layered_structure;
          Alcotest.test_case "connection" `Quick test_layered_connection;
          Alcotest.test_case "duplicate definition" `Quick
            test_layered_duplicate_definition;
        ] );
      ( "interface",
        [
          Alcotest.test_case "universal relation answer" `Quick
            test_universal_relation_answer;
          Alcotest.test_case "single attribute" `Quick test_single_attribute_query;
          Alcotest.test_case "where clause" `Quick test_where_clause;
          Alcotest.test_case "interpretations" `Quick
            test_interface_interpretations;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
