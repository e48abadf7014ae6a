(* Tests for the text formats. *)

open Graphs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sample_graph = {|
# a comment
bipartite
left  A B C
right r1 r2
edge  A r1
edge  B r1   # trailing comment
edge  B r2
edge  C r2
|}

let test_parse_bigraph () =
  match Mc_io.Parse.bigraph_of_string sample_graph with
  | Ok nb ->
    check_int "left" 3 (Array.length nb.Mc_io.Parse.left_names);
    check_int "right" 2 (Array.length nb.Mc_io.Parse.right_names);
    check_int "edges" 4 (Bipartite.Bigraph.m nb.Mc_io.Parse.graph);
    check "edge A-r1 present" true
      (Bipartite.Bigraph.mem_edge nb.Mc_io.Parse.graph 0 0)
  | Error e -> Alcotest.failf "parse error: %a" Mc_io.Parse.pp_error e

let test_round_trip () =
  match Mc_io.Parse.bigraph_of_string sample_graph with
  | Error _ -> Alcotest.fail "parse"
  | Ok nb -> (
    let printed = Mc_io.Parse.bigraph_to_string nb in
    match Mc_io.Parse.bigraph_of_string printed with
    | Ok nb2 ->
      check "round trip preserves the graph" true
        (Bipartite.Bigraph.equal nb.Mc_io.Parse.graph nb2.Mc_io.Parse.graph);
      check "names preserved" true
        (nb.Mc_io.Parse.left_names = nb2.Mc_io.Parse.left_names
        && nb.Mc_io.Parse.right_names = nb2.Mc_io.Parse.right_names)
    | Error e -> Alcotest.failf "reparse error: %a" Mc_io.Parse.pp_error e)

let expect_error text expected_substring =
  match Mc_io.Parse.bigraph_of_string text with
  | Ok _ -> Alcotest.failf "expected a parse error (%s)" expected_substring
  | Error e ->
    let msg = Format.asprintf "%a" Mc_io.Parse.pp_error e in
    let contains hay needle =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    check ("error mentions " ^ expected_substring) true
      (contains msg expected_substring)

let test_parse_errors () =
  expect_error "nonsense" "bipartite";
  expect_error "bipartite\nleft A\nright r\nedge B r" "unknown left node";
  expect_error "bipartite\nleft A\nright r\nedge A z" "unknown right node";
  expect_error "bipartite\nleft A A\nright r" "duplicate";
  expect_error "bipartite\nfoo bar" "unknown directive"

let test_name_set () =
  match Mc_io.Parse.bigraph_of_string sample_graph with
  | Error _ -> Alcotest.fail "parse"
  | Ok nb -> (
    (match Mc_io.Parse.name_set nb [ "A"; "r2" ] with
    | Ok s -> check_int "two nodes" 2 (Iset.cardinal s)
    | Error _ -> Alcotest.fail "known names");
    match Mc_io.Parse.name_set nb [ "A"; "zz" ] with
    | Error "zz" -> check "unknown reported" true true
    | _ -> Alcotest.fail "expected unknown name")

(* Delta files resolve each line against the schema as evolved by the
   lines above it: an edge may name a relation the file added, and
   after a [-relation] every later name means its shifted index. The
   same holds when the caller hands over an index of the schema. *)
let test_delta_names () =
  let module D = Bipartite.Delta in
  let nb =
    match Mc_io.Parse.bigraph_of_string sample_graph with
    | Ok nb -> nb
    | Error _ -> Alcotest.fail "parse"
  in
  let text =
    "deltas\n+relation r9 A\n+edge C r9\n-relation r1\n-edge A r9\n\
     +edge A r2\n"
  in
  let want =
    [
      D.Add_relation (Iset.singleton 0);
      D.Add_edge (2, 2);
      D.Remove_relation 0;
      D.Remove_edge (0, 1);
      D.Add_edge (0, 0);
    ]
  in
  List.iter
    (fun (how, parsed) ->
      match parsed with
      | Error e -> Alcotest.failf "%s: %a" how Mc_io.Parse.pp_error e
      | Ok (ops, evolved) ->
        check (how ^ ": ops at the evolved indices") true (ops = want);
        check (how ^ ": evolved right names") true
          (evolved.Mc_io.Parse.right_names = [| "r2"; "r9" |]);
        check (how ^ ": evolved graph = apply_all") true
          (match D.apply_all nb.Mc_io.Parse.graph ops with
          | Ok g -> Bipartite.Bigraph.equal g evolved.Mc_io.Parse.graph
          | Error _ -> false))
    [
      ("fresh index", Mc_io.Parse.deltas_of_string nb text);
      ( "given index",
        Mc_io.Parse.deltas_of_string ~names:(Mc_io.Parse.index nb) nb text );
    ];
  let error_of text =
    match Mc_io.Parse.deltas_of_string nb text with
    | Ok _ -> "ok"
    | Error e -> Runtime.Errors.to_string e
  in
  check "a removed relation is unknown on later lines" true
    (error_of "deltas\n-relation r1\n+edge A r1\n"
    = Runtime.Errors.to_string
        (Runtime.Errors.Parse_error
           { line = 3; col = 9; msg = "unknown relation 'r1'" }));
  check "a new relation may not reuse a left name" true
    (error_of "deltas\n+relation B A\n"
    = Runtime.Errors.to_string
        (Runtime.Errors.Parse_error
           { line = 2; col = 11; msg = "duplicate node name 'B'" }))

(* 6,000 names a side in 16,384 slots each. With these names
   ([Hashtbl.hash] is unseeded and stable) an insertion on each side
   probes past the last slot and wraps to slot 0: every name must still
   resolve to its own position, and a sample agree with the scan. *)
let test_name_index_large () =
  let n = 6000 in
  let nb =
    {
      Mc_io.Parse.graph = Bipartite.Bigraph.create ~nl:n ~nr:n;
      left_names = Array.init n (Printf.sprintf "q%d");
      right_names = Array.init n (Printf.sprintf "R%d");
    }
  in
  let ix = Mc_io.Parse.index nb in
  let resolves_to name v =
    match Mc_io.Parse.resolve ix [ name ] with
    | Ok s -> Iset.equal s (Iset.singleton v)
    | Error _ -> false
  in
  check "every left name" true
    (Array.for_all Fun.id
       (Array.mapi (fun i a -> resolves_to a i) nb.left_names));
  check "every right name" true
    (Array.for_all Fun.id
       (Array.mapi (fun j r -> resolves_to r (n + j)) nb.right_names));
  let rng = Workloads.Rng.make ~seed:5 in
  for _ = 1 to 50 do
    let query =
      List.init 4 (fun _ ->
          match Workloads.Rng.int rng 3 with
          | 0 -> Workloads.Rng.pick_array rng nb.left_names
          | 1 -> Workloads.Rng.pick_array rng nb.right_names
          | _ -> Printf.sprintf "x%d" (Workloads.Rng.int rng n))
    in
    check "sample agrees with name_set" true
      (Mc_io.Parse.resolve ix query = Mc_io.Parse.name_set nb query)
  done

(* [reindex] after one appended right name (a [+relation]) inserts it
   into a copy of the side's table, and rehashes when the load would
   pass 1/2 or a name was removed: at every side size from 0 to 40,
   across each doubling of the table, the evolved index resolves every
   name, a repeat of an earlier name, and a missing one as a fresh
   [index] does, and leaves the old index as it was. *)
let test_reindex_append () =
  let same ix ix' names =
    List.for_all
      (fun name ->
        Mc_io.Parse.resolve ix [ name ] = Mc_io.Parse.resolve ix' [ name ])
      ("missing" :: names)
  in
  for k = 0 to 40 do
    let nb =
      {
        Mc_io.Parse.graph = Bipartite.Bigraph.create ~nl:2 ~nr:k;
        left_names = [| "a0"; "a1" |];
        right_names = Array.init k (Printf.sprintf "r%d");
      }
    in
    let ix = Mc_io.Parse.index nb in
    let grow name =
      {
        nb with
        graph = Bipartite.Bigraph.create ~nl:2 ~nr:(k + 1);
        right_names = Array.append nb.right_names [| name |];
      }
    in
    let names nb =
      Array.to_list nb.Mc_io.Parse.left_names
      @ Array.to_list nb.Mc_io.Parse.right_names
    in
    List.iter
      (fun nb' ->
        check
          (Printf.sprintf "append to %d names" k)
          true
          (same (Mc_io.Parse.reindex ix nb') (Mc_io.Parse.index nb') (names nb'));
        check "parent index unchanged" true (same ix (Mc_io.Parse.index nb) (names nb')))
      (grow "fresh" :: (if k > 0 then [ grow "r0" ] else []));
    if k > 0 then begin
      let nb' =
        {
          nb with
          graph = Bipartite.Bigraph.create ~nl:2 ~nr:(k - 1);
          right_names = Array.sub nb.right_names 1 (k - 1);
        }
      in
      check
        (Printf.sprintf "removal from %d names" k)
        true
        (same (Mc_io.Parse.reindex ix nb') (Mc_io.Parse.index nb') (names nb))
    end
  done

let test_parse_schema () =
  let text = {|
schema
relation works   emp dept
relation located dept floor
|} in
  match Mc_io.Parse.schema_of_string text with
  | Ok schema ->
    check_int "relations" 2
      (List.length (Datamodel.Schema.relation_names schema));
    check_int "attributes" 3 (List.length (Datamodel.Schema.attributes schema))
  | Error e -> Alcotest.failf "schema parse: %a" Mc_io.Parse.pp_error e

let test_parse_hypergraph () =
  let text = {|
hypergraph
nodes a b c d
edge e1 a b
edge e2 b c d
|} in
  match Mc_io.Parse.hypergraph_of_string text with
  | Ok (h, node_names, edge_names) ->
    check_int "nodes" 4 (Hypergraphs.Hypergraph.n_nodes h);
    check_int "edges" 2 (Hypergraphs.Hypergraph.n_edges h);
    check "names kept" true
      (node_names = [| "a"; "b"; "c"; "d" |] && edge_names = [| "e1"; "e2" |]);
    check "content" true
      (Iset.equal (Hypergraphs.Hypergraph.edge h 1) (Iset.of_list [ 1; 2; 3 ]))
  | Error e -> Alcotest.failf "hypergraph parse: %a" Mc_io.Parse.pp_error e

let test_parse_database () =
  let text = {|
database
relation works emp dept
row works alice toys
row works bob books
|} in
  (match Mc_io.Parse.database_of_string text with
  | Ok db ->
    check_int "one relation" 1 (List.length (Relalg.Database.names db));
    check_int "two rows" 2
      (Relalg.Relation.cardinality (Relalg.Database.relation db "works"))
  | Error e -> Alcotest.failf "database parse: %a" Mc_io.Parse.pp_error e);
  (match Mc_io.Parse.database_of_string "database
row ghost x" with
  | Error _ -> check "row for unknown relation rejected" true true
  | Ok _ -> Alcotest.fail "expected error");
  match Mc_io.Parse.database_of_string "database
relation r a b
row r x" with
  | Error _ -> check "arity mismatch rejected" true true
  | Ok _ -> Alcotest.fail "expected error"

let test_parse_query () =
  (match Mc_io.Parse.query_of_string "connect emp, manager" with
  | Ok (objs, []) ->
    check "two objects" true (List.sort compare objs = [ "emp"; "manager" ])
  | _ -> Alcotest.fail "plain connect");
  (match
     Mc_io.Parse.query_of_string
       "connect emp where dept = toys and floor = 1"
   with
  | Ok ([ "emp" ], where) ->
    check "two conditions" true
      (List.sort compare where = [ ("dept", "toys"); ("floor", "1") ])
  | _ -> Alcotest.fail "where clause");
  (match Mc_io.Parse.query_of_string "select * from t" with
  | Error _ -> check "non-connect rejected" true true
  | Ok _ -> Alcotest.fail "expected error");
  match Mc_io.Parse.query_of_string "connect a where b =" with
  | Error _ -> check "malformed condition rejected" true true
  | Ok _ -> Alcotest.fail "expected error"

let test_printer_round_trips () =
  (* Schema round trip. *)
  let schema =
    Datamodel.Schema.make [ ("works", [ "emp"; "dept" ]); ("loc", [ "dept"; "floor" ]) ]
  in
  (match Mc_io.Parse.schema_of_string (Mc_io.Parse.schema_to_string schema) with
  | Ok s2 ->
    check "schema survives" true
      (Datamodel.Schema.relation_names s2 = Datamodel.Schema.relation_names schema
      && Datamodel.Schema.attributes s2 = Datamodel.Schema.attributes schema)
  | Error e -> Alcotest.failf "schema reparse: %a" Mc_io.Parse.pp_error e);
  (* Hypergraph round trip. *)
  let h =
    Hypergraphs.Hypergraph.create ~n_nodes:3
      [ Iset.of_list [ 0; 1 ]; Iset.of_list [ 1; 2 ] ]
  in
  let text =
    Mc_io.Parse.hypergraph_to_string h ~node_names:[| "x"; "y"; "z" |]
      ~edge_names:[| "e"; "f" |]
  in
  (match Mc_io.Parse.hypergraph_of_string text with
  | Ok (h2, _, _) ->
    check "hypergraph survives" true (Hypergraphs.Hypergraph.equal_modulo_order h h2)
  | Error e -> Alcotest.failf "hypergraph reparse: %a" Mc_io.Parse.pp_error e);
  (* Database round trip. *)
  let db =
    Relalg.Database.make
      [ ("r", Relalg.Relation.make ~attrs:[ "a"; "b" ] [ [ "1"; "2" ]; [ "3"; "4" ] ]) ]
  in
  match Mc_io.Parse.database_of_string (Mc_io.Parse.database_to_string db) with
  | Ok db2 ->
    check "database survives" true
      (Relalg.Relation.equal (Relalg.Database.relation db "r")
         (Relalg.Database.relation db2 "r"))
  | Error e -> Alcotest.failf "database reparse: %a" Mc_io.Parse.pp_error e

(* ------------------------------------------- exact error positions *)

(* The positions a line-by-line scan reports: the first unknown name in
   file order, with the column of the offending token; duplicate names
   are a whole-file property (line 0, col 0). *)
let test_error_positions () =
  let expect text ~line ~col ~msg =
    match Mc_io.Parse.bigraph_of_string text with
    | Error (Runtime.Errors.Parse_error e) ->
      check_int (msg ^ ": line") line e.line;
      check_int (msg ^ ": col") col e.col;
      Alcotest.(check string) (msg ^ ": message") msg e.msg
    | Error e -> Alcotest.failf "untyped error: %a" Mc_io.Parse.pp_error e
    | Ok _ -> Alcotest.failf "expected an error (%s)" msg
  in
  expect "bipartite\nleft A\nright r\nedge B r" ~line:4 ~col:6
    ~msg:"unknown left node 'B'";
  expect "bipartite\nleft A\nright r\nedge A z" ~line:4 ~col:8
    ~msg:"unknown right node 'z'";
  expect "bipartite\nleft A\nright r\nedge X Y" ~line:4 ~col:6
    ~msg:"unknown left node 'X'";
  expect "bipartite\nleft A\nright r\nedge A r\n  edge   A  q\nedge B r\n"
    ~line:5 ~col:13 ~msg:"unknown right node 'q'";
  expect "bipartite\nleft A B\nright r\nleft C A\nedge A r" ~line:0 ~col:0
    ~msg:"duplicate node name";
  expect "bipartite\nleft A B\nright r s r" ~line:0 ~col:0
    ~msg:"duplicate node name";
  expect "bipartite\nleft A B\nright r B\nedge A r" ~line:0 ~col:0
    ~msg:"duplicate node name";
  (* An edge line of the wrong arity names its arity: at the first
     extra name, or at the keyword when names are missing. *)
  expect "bipartite\nleft A\nright r\nedge A r extra" ~line:4 ~col:10
    ~msg:"'edge' line needs two names, found 3";
  expect "bipartite\nleft A\nright r\n  edge A r x y # z" ~line:4 ~col:12
    ~msg:"'edge' line needs two names, found 4";
  expect "bipartite\nleft A\nright r\nedge A" ~line:4 ~col:1
    ~msg:"'edge' line needs two names, found 1";
  expect "bipartite\nleft A\nright r\n\tedge # none" ~line:4 ~col:2
    ~msg:"'edge' line needs two names, found 0";
  (* A "\r\n" ends a line: the '\r' belongs to no token, and positions
     are those of the same file with "\n" line ends. *)
  expect "bipartite\r\nleft A\r\nright r\r\nedge B r\r\n" ~line:4 ~col:6
    ~msg:"unknown left node 'B'";
  expect "bipartite\r\nleft A\r\nright r\r\nedge A z\r\n" ~line:4 ~col:8
    ~msg:"unknown right node 'z'";
  expect "bipartite x\r\n" ~line:1 ~col:1
    ~msg:"expected a single 'bipartite' header line"

(* ------------------------------------------------ emitter line cap *)

let named graph =
  {
    Mc_io.Parse.graph;
    left_names =
      Array.init (Bipartite.Bigraph.nl graph) (fun i -> Printf.sprintf "a%d" i);
    right_names =
      Array.init (Bipartite.Bigraph.nr graph) (fun j -> Printf.sprintf "r%d" j);
  }

let lines_of text =
  String.split_on_char '\n' text |> List.filter (fun l -> l <> "")

(* A side that fits on one line prints as exactly one line (the format
   every earlier emitter wrote); an empty side prints no line, so the
   output reads back. *)
let test_emitter_small () =
  let g = Bipartite.Bigraph.of_edges ~nl:3 ~nr:2 [ (0, 0); (1, 0); (2, 1) ] in
  Alcotest.(check string)
    "single-line sides" "bipartite\nleft a0 a1 a2\nright r0 r1\nedge a0 r0\nedge a1 r0\nedge a2 r1\n"
    (Mc_io.Parse.bigraph_to_string (named g));
  let lonely = named (Bipartite.Bigraph.create ~nl:0 ~nr:2) in
  let text = Mc_io.Parse.bigraph_to_string lonely in
  Alcotest.(check string) "empty side prints no line" "bipartite\nright r0 r1\n"
    text;
  match Mc_io.Parse.bigraph_of_string text with
  | Ok nb -> check_int "empty left side reads back" 0 (Array.length nb.left_names)
  | Error e -> Alcotest.failf "reparse: %a" Mc_io.Parse.pp_error e

(* A 10^5-node scale instance: every emitted line is under the parser's
   line cap (the left side alone needs several lines), and the text
   parses back in-process to the same CSR and names. *)
let test_scale_emit_reads_back () =
  let inst =
    Workloads.Gen_scale.make Workloads.Gen_scale.Chordal62 ~target_n:100_000
      ~seed:13
  in
  let nb = named (Workloads.Gen_scale.to_bigraph inst) in
  let text = Mc_io.Parse.bigraph_to_string nb in
  let lines = lines_of text in
  check "every line under the cap" true
    (List.for_all
       (fun l -> String.length l <= Mc_io.Parse.max_line_bytes)
       lines);
  check "left side split across lines" true
    (List.length (List.filter (String.starts_with ~prefix:"left ") lines) > 1);
  match Mc_io.Parse.bigraph_of_string text with
  | Error e -> Alcotest.failf "10^5 emit rejected: %a" Mc_io.Parse.pp_error e
  | Ok nb2 ->
    check "same CSR" true
      (Csr.equal
         (Bipartite.Bigraph.csr nb.graph)
         (Bipartite.Bigraph.csr nb2.graph));
    check "same names" true
      (nb.left_names = nb2.left_names && nb.right_names = nb2.right_names)

(* ------------------------------------------------ round-trip property *)

(* The same schema as a hand-edited file might hold it: each side's
   names cut into several [left]/[right] lines at random points, some
   edges listed twice, and the edge lines shuffled. *)
let scrambled_text rng (nb : Mc_io.Parse.named_bigraph) =
  let b = Buffer.create 256 in
  Buffer.add_string b "bipartite\n";
  let names keyword arr =
    Array.iteri
      (fun i s ->
        if i = 0 || Workloads.Rng.bool rng 0.3 then begin
          if i > 0 then Buffer.add_char b '\n';
          Buffer.add_string b keyword
        end;
        Buffer.add_char b ' ';
        Buffer.add_string b s)
      arr;
    if Array.length arr > 0 then Buffer.add_char b '\n'
  in
  names "right" nb.right_names;
  names "left" nb.left_names;
  Bipartite.Bigraph.edges nb.graph
  |> List.concat_map (fun e ->
         if Workloads.Rng.bool rng 0.3 then [ e; e ] else [ e ])
  |> Workloads.Rng.shuffle rng
  |> List.iter (fun (i, j) ->
         Printf.bprintf b "edge %s %s\n" nb.left_names.(i) nb.right_names.(j));
  Buffer.contents b

let family_gen =
  QCheck2.Gen.(
    pair (int_range 0 4) (int_range 0 100000)
    |> map (fun (family, seed) ->
           let rng = Workloads.Rng.make ~seed in
           let size = 2 + Workloads.Rng.int rng 7 in
           let g =
             match family with
             | 0 -> Workloads.Gen_bipartite.forest rng ~n:(2 * size)
             | 1 ->
               Workloads.Gen_bipartite.chordal_62 rng ~n_right:size ~max_size:4
             | 2 ->
               Workloads.Gen_bipartite.alpha_bipartite rng ~n_right:size
                 ~max_size:4
             | 3 -> Workloads.Gen_bipartite.chordal_61_flower rng ~petals:size
             | _ ->
               (* Either side may be empty. *)
               Workloads.Gen_bipartite.gnp rng
                 ~nl:(Workloads.Rng.int rng 6)
                 ~nr:(Workloads.Rng.int rng 6)
                 ~p:0.4
           in
           (named g, seed)))

let reads_back_as (nb : Mc_io.Parse.named_bigraph) text =
  match Mc_io.Parse.bigraph_of_string text with
  | Error _ -> false
  | Ok nb2 ->
    Csr.equal (Bipartite.Bigraph.csr nb.graph) (Bipartite.Bigraph.csr nb2.graph)
    && nb.left_names = nb2.left_names
    && nb.right_names = nb2.right_names

(* The name index against the scan it replaces on the hot paths. The
   sides are perturbed first: a right name copied from the left side
   (the left one wins) and a repeated name within a side (the first
   occurrence wins) — neither parses, but a caller-built record may
   hold them. Queries mix known and unknown names, repeats and [];
   both must agree on the set and on the first unknown name. *)
let prop_resolve_equals_name_set =
  QCheck2.Test.make ~count:500 ~name:"resolve (index nb) = name_set nb"
    family_gen (fun (nb, seed) ->
      let rng = Workloads.Rng.make ~seed in
      let perturb names other =
        let names = Array.copy names in
        let n = Array.length names in
        if n > 0 && Workloads.Rng.bool rng 0.5 then begin
          if Array.length other > 0 && Workloads.Rng.bool rng 0.5 then
            names.(Workloads.Rng.int rng n) <-
              other.(Workloads.Rng.int rng (Array.length other))
          else
            names.(Workloads.Rng.int rng n) <- names.(Workloads.Rng.int rng n)
        end;
        names
      in
      let nb =
        {
          nb with
          Mc_io.Parse.left_names = perturb nb.Mc_io.Parse.left_names [||];
          right_names = perturb nb.right_names nb.left_names;
        }
      in
      let pool =
        Array.concat
          [ nb.left_names; nb.right_names; [| "zz"; "a999"; "r-1"; "" |] ]
      in
      let ix = Mc_io.Parse.index nb in
      List.for_all
        (fun _ ->
          let query =
            List.init (Workloads.Rng.int rng 6) (fun _ ->
                Workloads.Rng.pick_array rng pool)
          in
          match
            (Mc_io.Parse.resolve ix query, Mc_io.Parse.name_set nb query)
          with
          | Ok a, Ok b -> Iset.equal a b
          | Error a, Error b -> a = b
          | Ok _, Error _ | Error _, Ok _ -> false)
        (List.init 8 Fun.id))

(* The index the loader returns with the graph against [index] of the
   graph it returns. The text repeats [left]/[right] lines at random
   points and lists some edges twice; queries mix both sides' names
   with unknown ones, repeats and []. Both must agree on the set and
   on the first unknown name. *)
let prop_loader_index_equals_index =
  QCheck2.Test.make ~count:300
    ~name:"indexed_bigraph_of_string's index = index of its graph" family_gen
    (fun (nb, seed) ->
      let rng = Workloads.Rng.make ~seed in
      match
        Mc_io.Parse.indexed_bigraph_of_string (scrambled_text rng nb)
      with
      | Error _ -> false
      | Ok (loaded, ix) ->
        let fresh = Mc_io.Parse.index loaded in
        let pool =
          Array.concat
            [
              loaded.left_names;
              loaded.right_names;
              [| "zz"; "a999"; "r-1"; ""; "left"; "edge" |];
            ]
        in
        List.for_all
          (fun _ ->
            let query =
              List.init (Workloads.Rng.int rng 6) (fun _ ->
                  Workloads.Rng.pick_array rng pool)
            in
            match
              (Mc_io.Parse.resolve ix query, Mc_io.Parse.resolve fresh query)
            with
            | Ok a, Ok b -> Iset.equal a b
            | Error a, Error b -> a = b
            | Ok _, Error _ | Error _, Ok _ -> false)
          (List.init 8 Fun.id))

let qcheck_cases =
  [
    prop_resolve_equals_name_set;
    QCheck2.Test.make ~count:300 ~name:"emit then parse is the identity"
      family_gen (fun (nb, _) ->
        reads_back_as nb (Mc_io.Parse.bigraph_to_string nb));
    QCheck2.Test.make ~count:300
      ~name:"repeated name lines, duplicate and shuffled edges" family_gen
      (fun (nb, seed) ->
        reads_back_as nb (scrambled_text (Workloads.Rng.make ~seed) nb));
    prop_loader_index_equals_index;
  ]

let () =
  Alcotest.run "mc_io"
    [
      ( "parse",
        [
          Alcotest.test_case "bigraph" `Quick test_parse_bigraph;
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "name set" `Quick test_name_set;
          Alcotest.test_case "delta file names" `Quick test_delta_names;
          Alcotest.test_case "reindex after an append" `Quick
            test_reindex_append;
          Alcotest.test_case "name index at 10^4 names" `Quick
            test_name_index_large;
          Alcotest.test_case "schema" `Quick test_parse_schema;
          Alcotest.test_case "hypergraph" `Quick test_parse_hypergraph;
          Alcotest.test_case "database" `Quick test_parse_database;
          Alcotest.test_case "query language" `Quick test_parse_query;
          Alcotest.test_case "printer round trips" `Quick test_printer_round_trips;
          Alcotest.test_case "error positions" `Quick test_error_positions;
          Alcotest.test_case "emitter keeps small files" `Quick
            test_emitter_small;
          Alcotest.test_case "10^5 scale emit reads back" `Quick
            test_scale_emit_reads_back;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
