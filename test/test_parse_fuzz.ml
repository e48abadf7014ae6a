(* Fuzzing the Mc_io.Parse boundary: random byte mutations and
   truncations of well-formed instance files, delta files (read against
   a random schema) and interface queries must never escape as
   exceptions — every outcome is [Ok _] or a positioned
   [Error (Parse_error _)] from the runtime taxonomy. *)

module Errors = Runtime.Errors

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

(* -------------------------------------------- well-formed corpora *)

let name_of rng prefix k =
  Printf.sprintf "%s%d_%c" prefix k
    (Char.chr (Char.code 'a' + Workloads.Rng.int rng 26))

let random_bigraph_text rng =
  let nl = 1 + Workloads.Rng.int rng 5 and nr = 1 + Workloads.Rng.int rng 5 in
  let g = Workloads.Gen_bipartite.gnp rng ~nl ~nr ~p:0.5 in
  let nb =
    {
      Mc_io.Parse.graph = g;
      left_names = Array.init nl (fun i -> name_of rng "L" i);
      right_names = Array.init nr (fun j -> name_of rng "R" j);
    }
  in
  Mc_io.Parse.bigraph_to_string nb

let random_schema_text rng =
  let n = 1 + Workloads.Rng.int rng 4 in
  let b = Buffer.create 128 in
  Buffer.add_string b "schema\n";
  for i = 0 to n - 1 do
    let arity = 1 + Workloads.Rng.int rng 3 in
    Buffer.add_string b (Printf.sprintf "relation r%d" i);
    for k = 0 to arity - 1 do
      Buffer.add_string b
        (Printf.sprintf " a%d" (Workloads.Rng.int rng (arity + k + 2)))
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let random_hypergraph_text rng =
  let h =
    Workloads.Gen_hyper.random rng
      ~n_nodes:(2 + Workloads.Rng.int rng 5)
      ~n_edges:(1 + Workloads.Rng.int rng 4)
      ~max_size:3
  in
  let node_names =
    Array.init (Hypergraphs.Hypergraph.n_nodes h) (fun i ->
        Printf.sprintf "n%d" i)
  in
  let edge_names =
    Array.init (Hypergraphs.Hypergraph.n_edges h) (fun i ->
        Printf.sprintf "e%d" i)
  in
  Mc_io.Parse.hypergraph_to_string h ~node_names ~edge_names

let random_database_text rng =
  let b = Buffer.create 128 in
  Buffer.add_string b "database\n";
  let n = 1 + Workloads.Rng.int rng 3 in
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "relation r%d x%d y%d\n" i i i)
  done;
  for _ = 1 to Workloads.Rng.int rng 5 do
    Buffer.add_string b
      (Printf.sprintf "row r%d %d %d\n" (Workloads.Rng.int rng n)
         (Workloads.Rng.int rng 9) (Workloads.Rng.int rng 9))
  done;
  Buffer.contents b

(* Object lists separated by commas, blanks or tabs, and zero to three
   [attr = value] conditions joined by [and]. *)
let random_query_text rng =
  let n = 1 + Workloads.Rng.int rng 3 in
  let sep () = Workloads.Rng.pick rng [ ", "; " "; ","; "\t" ] in
  let conds =
    List.init (Workloads.Rng.int rng 4) (fun i ->
        Printf.sprintf "a%d = %d" i (Workloads.Rng.int rng 9))
  in
  "connect "
  ^ String.concat (sep ()) (List.init n (fun i -> Printf.sprintf "a%d" i))
  ^ if conds = [] then "" else " where " ^ String.concat " and " conds

(* A random named schema, and a delta file against it whose every line
   is valid in the schema as evolved by the lines above it: edges added
   and removed, relations added over known attributes and removed,
   with blank and comment lines between. *)
let random_delta_schema rng =
  let nl = 1 + Workloads.Rng.int rng 5 and nr = 1 + Workloads.Rng.int rng 4 in
  {
    Mc_io.Parse.graph = Workloads.Gen_bipartite.gnp rng ~nl ~nr ~p:0.5;
    left_names = Array.init nl (fun i -> name_of rng "L" i);
    right_names = Array.init nr (fun j -> name_of rng "R" j);
  }

let random_deltas_text nb rng =
  let module B = Bipartite.Bigraph in
  let left = nb.Mc_io.Parse.left_names in
  let rights = ref (Array.to_list nb.right_names) in
  let edges = ref [] in
  B.iter_edges nb.graph (fun i j ->
      edges := (left.(i), nb.right_names.(j)) :: !edges);
  let b = Buffer.create 128 in
  Buffer.add_string b "deltas\n";
  for k = 0 to Workloads.Rng.int rng 6 do
    let pick_left () = left.(Workloads.Rng.int rng (Array.length left)) in
    (match Workloads.Rng.int rng 5 with
    | 0 when !rights <> [] ->
      let a = pick_left () and r = Workloads.Rng.pick rng !rights in
      if not (List.mem (a, r) !edges) then begin
        edges := (a, r) :: !edges;
        Printf.bprintf b "+edge %s %s\n" a r
      end
    | 1 when !edges <> [] ->
      let ((a, r) as e) = Workloads.Rng.pick rng !edges in
      edges := List.filter (( <> ) e) !edges;
      Printf.bprintf b "-edge %s %s\n" a r
    | 2 | 3 ->
      let r = Printf.sprintf "X%d" k in
      let attrs =
        List.sort_uniq compare
          (List.init (1 + Workloads.Rng.int rng 3) (fun _ -> pick_left ()))
      in
      rights := !rights @ [ r ];
      edges := List.map (fun a -> (a, r)) attrs @ !edges;
      Printf.bprintf b "+relation %s %s\n" r (String.concat " " attrs)
    | _ when !rights <> [] ->
      let r = Workloads.Rng.pick rng !rights in
      rights := List.filter (( <> ) r) !rights;
      edges := List.filter (fun (_, r') -> r' <> r) !edges;
      Printf.bprintf b "-relation %s\n" r
    | _ -> ());
    if Workloads.Rng.bool rng 0.2 then Buffer.add_string b "# note\n\n"
  done;
  Buffer.contents b

(* ------------------------------------------------------- mutations *)

(* Replacement bytes skew toward structure-relevant characters so the
   fuzz reaches tokenizer and directive edge cases, not just garbage
   names. *)
let mutation_byte rng =
  let structural = [| ' '; '\t'; '\n'; '#'; '"'; '\\'; '\r'; '\000' |] in
  if Workloads.Rng.bool rng 0.5 then
    structural.(Workloads.Rng.int rng (Array.length structural))
  else Char.chr (Workloads.Rng.int rng 256)

let mutate rng text =
  let b = Bytes.of_string text in
  let n = Bytes.length b in
  if n = 0 then text
  else begin
    (* A few point mutations... *)
    for _ = 0 to Workloads.Rng.int rng 4 do
      Bytes.set b (Workloads.Rng.int rng n) (mutation_byte rng)
    done;
    let s = Bytes.to_string b in
    (* ...then possibly truncate mid-token or mid-line. *)
    if Workloads.Rng.bool rng 0.4 then
      String.sub s 0 (Workloads.Rng.int rng (String.length s))
    else s
  end

(* ------------------------------------------------------ the oracle *)

(* A parser survives an input iff it returns [Ok] or a positioned
   parse error; any other constructor or any exception is a bug in
   the boundary. *)
let survives parse input =
  match parse input with
  | Ok _ -> true
  | Error (Errors.Parse_error { line; col; _ }) -> line >= 0 && col >= 0
  | Error _ -> false
  | exception _ -> false

let fuzz_case ~name gen =
  QCheck2.Test.make ~count:400 ~name seed_gen (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let text, parse = gen rng in
      (* The pristine text must parse; every mutation must fail
         gracefully if it fails at all. *)
      Result.is_ok (parse text)
      &&
      let ok = ref true in
      for _ = 1 to 8 do
        if not (survives parse (mutate rng text)) then ok := false
      done;
      !ok)

let fuzz_prop ~name ~gen_text parse =
  fuzz_case ~name (fun rng -> (gen_text rng, parse))

let suite =
  [
    fuzz_prop ~name:"bigraph_of_string never throws"
      ~gen_text:random_bigraph_text Mc_io.Parse.bigraph_of_string;
    fuzz_prop ~name:"schema_of_string never throws"
      ~gen_text:random_schema_text Mc_io.Parse.schema_of_string;
    fuzz_prop ~name:"hypergraph_of_string never throws"
      ~gen_text:random_hypergraph_text Mc_io.Parse.hypergraph_of_string;
    fuzz_prop ~name:"database_of_string never throws"
      ~gen_text:random_database_text Mc_io.Parse.database_of_string;
    fuzz_prop ~name:"query_of_string never throws"
      ~gen_text:random_query_text Mc_io.Parse.query_of_string;
    (* Each seed draws the schema once; the delta text and its mutations
       are all read against it. *)
    fuzz_case ~name:"deltas_of_string never throws" (fun rng ->
        let nb = random_delta_schema rng in
        (random_deltas_text nb rng, Mc_io.Parse.deltas_of_string nb));
    (* Constructors behind the parse boundary: arbitrary (often invalid)
       descriptions must surface as [Invalid_argument], never as an
       assertion failure or a crash in the derived graph builders. *)
    QCheck2.Test.make ~count:400
      ~name:"datamodel constructors never leak assertions" seed_gen
      (fun seed ->
        let rng = Workloads.Rng.make ~seed in
        let name k = Printf.sprintf "o%d" (Workloads.Rng.int rng k) in
        let names k n = List.init n (fun _ -> name k) in
        let layered_ok =
          let levels =
            List.init
              (1 + Workloads.Rng.int rng 3)
              (fun _ -> names 8 (1 + Workloads.Rng.int rng 3))
          in
          let definitions =
            List.init (Workloads.Rng.int rng 4) (fun _ ->
                (name 8, names 10 (Workloads.Rng.int rng 3)))
          in
          match Datamodel.Layered.make ~levels ~definitions with
          | t ->
            (* A constructor that accepts must also build the graph. *)
            (try
               ignore (Datamodel.Layered.to_bigraph t);
               true
             with _ -> false)
          | exception Invalid_argument _ -> true
          | exception _ -> false
        in
        let er_ok =
          let entities =
            List.init (Workloads.Rng.int rng 3) (fun _ ->
                (name 6, names 6 (Workloads.Rng.int rng 3)))
          in
          let relationships =
            List.init (Workloads.Rng.int rng 3) (fun _ ->
                (name 6, names 6 (Workloads.Rng.int rng 2), names 6 1))
          in
          match Datamodel.Er.make ~entities ~relationships with
          | t -> (
            try
              ignore (Datamodel.Er.to_ugraph t);
              true
            with _ -> false)
          | exception Invalid_argument _ -> true
          | exception _ -> false
        in
        layered_ok && er_ok);
  ]

(* ---------------------------------------------- oversized inputs *)

(* The byte caps sit in front of every parser: a document over
   [max_input_bytes] and a line over [max_line_bytes] must both come
   back as a positioned [Parse_error] before any tokenization, never
   an allocation blow-up or an exception. *)

let expect_parse_error ~what parse text =
  match parse text with
  | Error (Errors.Parse_error _) -> ()
  | Ok _ -> Alcotest.failf "%s: oversized input accepted" what
  | Error e ->
    Alcotest.failf "%s: wrong error class: %s" what (Errors.to_string e)

let test_total_cap () =
  (* One byte over the total cap; every entry point must refuse it. *)
  let text = String.make (Mc_io.Parse.max_input_bytes + 1) 'a' in
  expect_parse_error ~what:"bigraph" Mc_io.Parse.bigraph_of_string text;
  expect_parse_error ~what:"schema" Mc_io.Parse.schema_of_string text;
  expect_parse_error ~what:"hypergraph" Mc_io.Parse.hypergraph_of_string text;
  expect_parse_error ~what:"database" Mc_io.Parse.database_of_string text;
  expect_parse_error ~what:"query" Mc_io.Parse.query_of_string text;
  (* At the cap exactly the guard stands aside (the parser then fails
     on content, but with an ordinary positioned error). *)
  match Mc_io.Parse.bigraph_of_string (String.make 64 'a') with
  | Error (Errors.Parse_error { line; _ }) ->
    Alcotest.(check bool) "in-cap error is positioned" true (line >= 1)
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error e -> Alcotest.failf "wrong error class: %s" (Errors.to_string e)

let oversized_line_case =
  QCheck2.Test.make ~count:20
    ~name:"oversized line rejected with its line number" seed_gen (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let base = random_bigraph_text rng in
      let prefix = Workloads.Rng.int rng 5 in
      let pad = String.make (Mc_io.Parse.max_line_bytes + 1) 'x' in
      let b = Buffer.create (String.length pad + String.length base + 64) in
      for i = 1 to prefix do
        Buffer.add_string b (Printf.sprintf "pad line %d\n" i)
      done;
      Buffer.add_string b pad;
      Buffer.add_char b '\n';
      Buffer.add_string b base;
      match Mc_io.Parse.bigraph_of_string (Buffer.contents b) with
      | Error (Errors.Parse_error { line; _ }) -> line = prefix + 1
      | Ok _ | Error _ -> false)

(* ------------------------------------------ differential oracle *)

(* [Mc_io.Parse.bigraph_of_string] against the list-based parser it
   replaced ([Reference_parse]): equal name arrays, equal CSR graphs,
   or the same [Parse_error {line; col; msg}]. Two changes are by
   design. A "\r\n" line end is a line end, so the reference reads
   the text with each such '\r' dropped — which moves no position,
   since the '\r' is the last byte of its line. And an [edge] line of
   the wrong arity, an unknown directive to the reference, reports
   its arity on the same line: at the keyword when names are missing,
   past it at the first extra name. *)

let strip_crlf text =
  let n = String.length text in
  let b = Buffer.create n in
  String.iteri
    (fun i ch ->
      if not (ch = '\r' && i + 1 < n && text.[i + 1] = '\n') then
        Buffer.add_char b ch)
    text;
  Buffer.contents b

let arity_prefix = "'edge' line needs two names, found "

let agrees text =
  let module B = Bipartite.Bigraph in
  match
    (Reference_parse.bigraph_of_string (strip_crlf text),
     Mc_io.Parse.bigraph_of_string text)
  with
  | Ok r, Ok p ->
    r.Mc_io.Parse.left_names = p.Mc_io.Parse.left_names
    && r.right_names = p.right_names
    && B.nl r.graph = B.nl p.graph
    && B.nr r.graph = B.nr p.graph
    && Graphs.Csr.equal (B.csr r.graph) (B.csr p.graph)
  | Error (Errors.Parse_error r), Error (Errors.Parse_error p) ->
    if r.msg = "unknown directive 'edge'" then
      String.starts_with ~prefix:arity_prefix p.msg
      && p.line = r.line
      &&
      let k =
        int_of_string
          (String.sub p.msg (String.length arity_prefix)
             (String.length p.msg - String.length arity_prefix))
      in
      k <> 2 && if k < 2 then p.col = r.col else p.col > r.col
    else r.line = p.line && r.col = p.col && r.msg = p.msg
  | _ -> false

(* Layout edits that keep a file's meaning, or change it in the ways
   the hand cases below name: CRLF line ends, tabs and runs of blanks,
   trailing comments, name lines split, repeated or moved after the
   edges, and edge lines with a token too many or too few. *)
let restyle rng text =
  let pick p = Workloads.Rng.bool rng p in
  let lines =
    String.split_on_char '\n' text
    |> List.map (fun l ->
           String.split_on_char ' ' l |> List.filter (( <> ) ""))
  in
  let lines =
    if pick 0.3 then
      let names, rest =
        List.partition
          (function ("left" | "right") :: _ -> true | _ -> false)
          lines
      in
      rest @ names
    else lines
  in
  let lines =
    List.concat_map
      (function
        | ("left" | "right") as kw :: names
          when List.length names > 1 && pick 0.3 ->
          let k = 1 + Workloads.Rng.int rng (List.length names - 1) in
          [
            kw :: List.filteri (fun i _ -> i < k) names;
            kw :: List.filteri (fun i _ -> i >= k) names;
          ]
        | "edge" :: _ as toks when pick 0.05 -> [ toks @ [ "extra" ] ]
        | [ "edge"; a; _ ] when pick 0.05 -> [ [ "edge"; a ] ]
        | toks -> [ toks ])
      lines
  in
  let b = Buffer.create (2 * String.length text) in
  List.iteri
    (fun i toks ->
      if i > 0 then Buffer.add_string b (if pick 0.3 then "\r\n" else "\n");
      List.iteri
        (fun j t ->
          if j > 0 then
            Buffer.add_string b
              (match Workloads.Rng.int rng 4 with
              | 0 -> "\t"
              | 1 -> "  "
              | 2 -> " \t "
              | _ -> " ");
          Buffer.add_string b t)
        toks;
      if pick 0.1 then Buffer.add_string b " # note")
    lines;
  Buffer.contents b

let differential_prop =
  QCheck2.Test.make ~count:1000
    ~name:"bigraph_of_string agrees with the reference parser" seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let text = random_bigraph_text rng in
      let styled = restyle rng text in
      List.for_all agrees
        [ text; styled; mutate rng text; mutate rng styled; mutate rng styled ])

let long_line = String.make (Mc_io.Parse.max_line_bytes + 1) 'x'

let hand_cases =
  [
    ("tabs", "bipartite\nleft\tA\t\tB\nright r\nedge\tA r\nedge B\tr\n");
    ("# mid-line",
     "bipartite\nleft A B#C\nright r # s\nedge A r#x\nedge B#y\n");
    ("# ends a name", "bipartite\nleft A\nright r\nedge A#x r\n");
    ("repeated name lines",
     "bipartite\nleft A\nright r\nleft B C\nright s\nedge C s\nedge A r\n");
    ("names after edges", "bipartite\nedge A r\nedge B r\nleft A B\nright r\n");
    ("unknown name after edges",
     "bipartite\nedge A r\nedge B q\nleft A\nright r\n");
    ("header with a trailing token", "bipartite extra\nleft A\n");
    ("header not first", "left A\nbipartite\n");
    ("empty file", "");
    ("blank lines only", "\n \n\t\n");
    ("comment-only", "# one\n   # two\n#\n");
    ("oversized line after an early error", "nonsense\n" ^ long_line ^ "\n");
    ("oversized line after an unknown name",
     "bipartite\nleft A\nright r\nedge B r\n" ^ long_line);
    ("oversized comment line", "bipartite\n#" ^ long_line ^ "\nleft A\n");
    ("line at the cap",
     "bipartite\nleft "
     ^ String.make (Mc_io.Parse.max_line_bytes - 5) 'A'
     ^ "\n");
    ("edge with one name", "bipartite\nleft A\nright r\nedge A\n");
    ("edge with no names", "bipartite\nleft A\nright r\nedge  # nothing\n");
    ("edge with three names", "bipartite\nleft A\nright r\nedge A r r\n");
    ("empty left line", "bipartite\nleft # none\n");
    ("duplicate across sides", "bipartite\nleft A B\nright B\n");
    ("duplicate before unknown", "bipartite\nleft A A\nright r\nedge Z r\n");
    ("unknown directive", "bipartite\nleft A\nnodes x\n");
    ("names that prefix each other",
     "bipartite\nleft A AB ABC\nright r rs\nedge A r\nedge AB r\nedge ABC rs\n\
      edge AB rs\n");
    ("CRLF with an unknown name",
     "bipartite\r\nleft A\r\nright r\r\nedge A q\r\n");
    ("CRLF", "bipartite\r\nleft A B\r\nright r\r\nedge A r\r\nedge B r\r\n");
    ("CRLF before a comment",
     "bipartite # x\r\nleft A\r\nright r#y\r\nedge A r\r\n");
    ("lone CR", "bipartite\nleft A\rB\nright r\nedge A\rB r\n");
    ("CR CR LF", "bipartite\r\r\nleft A\n");
    ("no final newline", "bipartite\nleft A\nright r\nedge A r");
  ]

let test_hand_cases () =
  List.iter
    (fun (name, text) ->
      if not (agrees text) then
        Alcotest.failf "%s: the parser and the reference disagree" name)
    hand_cases

let () =
  Alcotest.run "parse_fuzz"
    [
      ("fuzz", List.map QCheck_alcotest.to_alcotest suite);
      ( "oversized",
        [
          Alcotest.test_case "total byte cap refuses every parser" `Quick
            test_total_cap;
          QCheck_alcotest.to_alcotest oversized_line_case;
        ] );
      ( "reference",
        [
          QCheck_alcotest.to_alcotest differential_prop;
          Alcotest.test_case "hand cases" `Quick test_hand_cases;
        ] );
    ]
