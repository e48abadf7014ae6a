(* End-to-end contract of bin/minconn_cli.exe: the documented exit
   codes (0 solved exact, 2 solved degraded, 3 no cover, 4 input
   error, 5 budget exhausted under --no-degrade) and the validity of
   the --trace / --metrics artifacts on every ladder rung. *)

let cli = Filename.concat ".." "bin/minconn_cli.exe"
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let fixture name labeled =
  let path = Printf.sprintf "cli_%s.bigraph" name in
  write_file path
    (Mc_io.Parse.bigraph_to_string
       {
         Mc_io.Parse.graph = labeled.Datamodel.Figures.graph;
         left_names = labeled.Datamodel.Figures.left_names;
         right_names = labeled.Datamodel.Figures.right_names;
       });
  path

let run args =
  let code = Sys.command (cli ^ " " ^ args ^ " > /dev/null 2> /dev/null") in
  if code = 127 then Alcotest.fail ("CLI not found at " ^ cli);
  code

(* ------------------------------------------------------ exit codes *)

let test_exit_exact () =
  let f = fixture "fig3a" Datamodel.Figures.fig3a in
  check_int "forest instance solves exactly" 0 (run ("solve " ^ f ^ " -t A,C"))

let test_exit_degraded () =
  let f = fixture "fig2" Datamodel.Figures.fig2 in
  check_int "fuel 2 degrades but still answers" 2
    (run ("solve " ^ f ^ " -t A,C --fuel 2"))

let test_exit_no_cover () =
  write_file "cli_disconnected.bigraph"
    "bipartite\nleft A B\nright 1 2\nedge A 1\nedge B 2\n";
  check_int "disconnected terminals" 3
    (run "solve cli_disconnected.bigraph -t A,B")

let test_exit_input_error () =
  let f = fixture "fig3a_unknown" Datamodel.Figures.fig3a in
  check_int "unknown terminal name" 4 (run ("solve " ^ f ^ " -t A,ZZZ"));
  write_file "cli_garbage.bigraph" "bipartite\nleft A\nedge A mystery\n";
  check_int "malformed instance" 4 (run "solve cli_garbage.bigraph -t A")

let test_exit_budget_exhausted () =
  let f = fixture "fig2_nd" Datamodel.Figures.fig2 in
  check_int "--no-degrade surfaces exhaustion" 5
    (run ("solve " ^ f ^ " -t A,C --fuel 2 --no-degrade"))

(* ------------------------------------------------ batch --queries *)

(* The batch exit code is the most severe per-query code; option
   misuse (-t with --queries, or neither) is an input error. *)

let test_batch_all_exact () =
  let f = fixture "batch_ok" Datamodel.Figures.fig3b in
  write_file "cli_batch_ok.queries" "# comment\nA,B\n\nA C\nA B C\n";
  check_int "all queries exact" 0
    (run ("solve " ^ f ^ " --queries cli_batch_ok.queries"))

let test_batch_worst_code () =
  let f = fixture "batch_bad" Datamodel.Figures.fig3b in
  (* One good query, one unknown terminal: 4 beats 0. *)
  write_file "cli_batch_bad.queries" "A,B\nA,ZZZ\nA C\n";
  check_int "unknown terminal dominates" 4
    (run ("solve " ^ f ^ " --queries cli_batch_bad.queries"));
  (* Per-query fuel drives every query to the degraded rung: 2. *)
  let f2 = fixture "batch_deg" Datamodel.Figures.fig2 in
  write_file "cli_batch_deg.queries" "A,C\nA,C\n";
  check_int "degraded batch exits 2" 2
    (run ("solve " ^ f2 ^ " --queries cli_batch_deg.queries --fuel 2"))

let test_batch_option_misuse () =
  let f = fixture "batch_opts" Datamodel.Figures.fig3b in
  write_file "cli_batch_opts.queries" "A,B\n";
  check_int "-t and --queries conflict" 4
    (run ("solve " ^ f ^ " -t A,B --queries cli_batch_opts.queries"));
  check_int "neither -t nor --queries" 4 (run ("solve " ^ f))

(* --------------------------------------- trace/metrics per rung *)

(* Each scenario drives the ladder to a different rung; the artifacts
   written by --trace/--metrics must validate and must contain a span
   for the rung that actually ran. *)
let rung_scenarios =
  [
    ("forest", Datamodel.Figures.fig3a, "A,C", "", "rung:exact-structured", 0);
    ("alg2", Datamodel.Figures.fig3b, "A,C", "", "rung:exact-structured", 0);
    ("dp", Datamodel.Figures.fig2, "A,C", "", "rung:exact-dp", 0);
    ( "degraded",
      Datamodel.Figures.fig2,
      "A,C",
      "--fuel 2",
      "rung:mst-approx",
      2 );
  ]

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_trace_artifacts () =
  List.iter
    (fun (tag, labeled, terminals, extra, want_span, want_code) ->
      let f = fixture ("tr_" ^ tag) labeled in
      let trace_f = Printf.sprintf "cli_%s.trace.ndjson" tag in
      let metrics_f = Printf.sprintf "cli_%s.metrics.json" tag in
      let code =
        run
          (Printf.sprintf "solve %s -t %s %s --trace %s --metrics %s" f
             terminals extra trace_f metrics_f)
      in
      check_int (tag ^ ": exit code") want_code code;
      let trace = read_file trace_f in
      (match Observe.Export.validate_ndjson_string trace with
      | Ok n -> check (tag ^ ": trace has spans") true (n > 0)
      | Error e -> Alcotest.fail (tag ^ ": invalid trace: " ^ e));
      check (tag ^ ": root solve span present") true (contains trace "\"solve\"");
      check
        (tag ^ ": expected rung span " ^ want_span)
        true
        (contains trace want_span);
      match Observe.Export.validate_metrics_string (read_file metrics_f) with
      | Ok n -> check (tag ^ ": metrics instruments") true (n > 0)
      | Error e -> Alcotest.fail (tag ^ ": invalid metrics: " ^ e))
    rung_scenarios

(* The artifacts must be written even when the solve fails, so a
   budget post-mortem has the spans leading up to the abort. *)
let test_trace_on_failure () =
  let f = fixture "tr_fail" Datamodel.Figures.fig2 in
  let code =
    run
      ("solve " ^ f
     ^ " -t A,C --fuel 2 --no-degrade --trace cli_fail.trace.ndjson \
        --metrics cli_fail.metrics.json")
  in
  check_int "still exits 5" 5 code;
  (match Observe.Export.validate_ndjson_string (read_file "cli_fail.trace.ndjson") with
  | Ok n -> check "failure trace non-empty" true (n > 0)
  | Error e -> Alcotest.fail ("invalid failure trace: " ^ e));
  check "abandoned rung recorded" true
    (contains (read_file "cli_fail.trace.ndjson") "rung:exact-dp")

(* A batch run's trace accounts for the front end and the answer text:
   one root [parse] span carrying the file's bytes, nodes and edges,
   and one root [render] span after the queries. *)
let test_trace_front_end () =
  let f = fixture "tr_batch" Datamodel.Figures.fig3b in
  write_file "cli_tr_batch.queries" "A,B\nA C\n";
  check_int "batch exits 0" 0
    (run
       ("solve " ^ f
      ^ " --queries cli_tr_batch.queries --trace cli_tr_batch.trace.ndjson"));
  let text = read_file "cli_tr_batch.trace.ndjson" in
  (match Observe.Export.validate_ndjson_string text with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("invalid batch trace: " ^ e));
  let roots name =
    String.split_on_char '\n' text
    |> List.filter (fun l ->
           contains l (Printf.sprintf "\"parent\":0,\"name\":\"%s\"" name))
  in
  (match roots "parse" with
  | [ line ] ->
    List.iter
      (fun attr ->
        check ("parse span records " ^ attr) true
          (contains line (Printf.sprintf "\"%s\":" attr)))
      [ "bytes"; "nodes"; "edges" ];
    check "parse span counts the file's bytes" true
      (contains line
         (Printf.sprintf "\"bytes\":%d" (String.length (read_file f))))
  | l -> Alcotest.failf "expected one root parse span, got %d" (List.length l));
  check_int "one root render span" 1 (List.length (roots "render"))

(* Every command that reads a schema records its front end and its
   compile: [compile] and [evolve] write root [parse] and [compile]
   spans like [solve] and [classify] do. *)
let test_trace_compile_evolve () =
  let f = fixture "tr_compile" Datamodel.Figures.fig3b in
  let spans_of args trace_f =
    check_int (args ^ " exits 0") 0 (run (args ^ " --trace " ^ trace_f));
    let text = read_file trace_f in
    (match Observe.Export.validate_ndjson_string text with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("invalid trace: " ^ e));
    text
  in
  let root text name =
    contains text (Printf.sprintf "\"parent\":0,\"name\":\"%s\"" name)
  in
  let compile = spans_of ("compile " ^ f) "cli_tr_compile.trace.ndjson" in
  check "compile: root parse span" true (root compile "parse");
  check "compile: root compile span" true (root compile "compile");
  write_file "cli_tr_evolve.deltas" "deltas\n+relation rX A B\n";
  write_file "cli_tr_evolve.queries" "A,B\n";
  let evolve =
    spans_of
      ("evolve " ^ f ^ " --deltas cli_tr_evolve.deltas")
      "cli_tr_evolve.trace.ndjson"
  in
  check "evolve: root parse span" true (root evolve "parse");
  check "evolve: root compile span" true (root evolve "compile");
  check "evolve: delta span" true (contains evolve "\"name\":\"apply_delta\"");
  let batch =
    spans_of
      ("evolve " ^ f
     ^ " --deltas cli_tr_evolve.deltas --queries cli_tr_evolve.queries")
      "cli_tr_evolve_q.trace.ndjson"
  in
  List.iter
    (fun name ->
      check ("evolve --queries: root " ^ name) true (root batch name))
    [ "parse"; "compile"; "query"; "render" ]

(* ------------------------------------------------------- CRLF input *)

(* A file with "\r\n" line ends reads as the same file with "\n" ones:
   every command gives byte-identical stdout, stderr and exit code on
   CRLF copies of the checked-in fixtures. *)
let crlf path =
  let text = read_file path in
  let b = Buffer.create (String.length text + 64) in
  String.iter
    (fun ch ->
      if ch = '\n' then Buffer.add_string b "\r\n" else Buffer.add_char b ch)
    text;
  let copy = "cli_crlf_" ^ Filename.basename path in
  write_file copy (Buffer.contents b);
  copy

let outcome args =
  let code =
    Sys.command (cli ^ " " ^ args ^ " > cli_crlf.out 2> cli_crlf.err")
  in
  (code, read_file "cli_crlf.out", read_file "cli_crlf.err")

let test_crlf_fixtures () =
  let g = "fixtures/fig3b.bigraph"
  and d = "fixtures/fig3b.deltas"
  and q = "fixtures/fig3b.queries" in
  let g' = crlf g and d' = crlf d and q' = crlf q in
  check "the copies differ from the fixtures" true
    (read_file g <> read_file g');
  List.iter
    (fun cmd ->
      let lf = outcome (cmd g d q) and crlf = outcome (cmd g' d' q') in
      let code, out, err = lf and code', out', err' = crlf in
      let name = cmd "F" "D" "Q" in
      check_int (name ^ ": exit code") code code';
      Alcotest.(check string) (name ^ ": stdout") out out';
      Alcotest.(check string) (name ^ ": stderr") err err';
      check (name ^ ": answers something") true (out <> ""))
    [
      (fun g _ _ -> "classify " ^ g);
      (fun g _ _ -> "compile " ^ g);
      (fun g _ q -> "solve " ^ g ^ " --queries " ^ q);
      (fun g d _ -> "evolve " ^ g ^ " --deltas " ^ d);
      (fun g d _ -> "evolve " ^ g ^ " --deltas " ^ d ^ " --emit");
      (fun g d q -> "evolve " ^ g ^ " --deltas " ^ d ^ " --queries " ^ q);
    ]

(* ------------------------------------------------------- compile *)

(* compile parses and compiles, printing the schema hash: 0 on a good
   file, 4 on a malformed one, and cmdliner's own 124 on a missing
   FILE, exactly as for solve. *)
let test_compile_exit_codes () =
  let f = fixture "compile_ok" Datamodel.Figures.fig3b in
  check_int "compile" 0 (run ("compile " ^ f));
  write_file "cli_compile_garbage.bigraph" "bipartite\nleft A\nedge A mystery\n";
  check_int "malformed instance" 4 (run "compile cli_compile_garbage.bigraph");
  check_int "nonexistent file" 124 (run "compile cli_compile_missing.bigraph")

(* ---------------------------------------------------------- query *)

(* The query subcommand runs the whole pipeline: scheme compilation,
   Algorithm 1, Yannakakis execution. Exit codes follow the same
   contract (0 answered, 3 disconnected, 4 input error, 5 budget
   exhausted). *)

let gen_args = "--gen chain --size 4 --rows 200 --domain 200 --seed 3"

let test_query_answers () =
  check_int "generated chain answers" 0 (run ("query " ^ gen_args ^ " -t a0,a4"));
  check_int "bag semantics answers" 0
    (run ("query " ^ gen_args ^ " --bag -t a0,a4"));
  check_int "naive baseline answers" 0
    (run ("query " ^ gen_args ^ " --naive -t a0,a4"));
  check_int "boolean query (relation terminals)" 0
    (run ("query " ^ gen_args ^ " -t r0,r3"));
  write_file "cli_query.db"
    "database\n\
     relation works emp dept\n\
     relation located dept floor\n\
     row works alice toys\n\
     row located toys 1\n";
  check_int "file-backed database answers" 0
    (run "query cli_query.db -t emp,floor")

let test_query_input_errors () =
  check_int "unknown terminal" 4 (run ("query " ^ gen_args ^ " -t a0,zz"));
  check_int "duplicate attribute terminals" 4
    (run ("query " ^ gen_args ^ " -t a0,a0,a4"));
  check_int "missing terminals" 4 (run ("query " ^ gen_args));
  check_int "neither DBFILE nor --gen" 4 (run "query -t a0");
  check_int "unknown generator family" 4
    (run "query --gen ring --size 4 -t a0");
  write_file "cli_query_bad.db" "database\nrelation r a b\nrow r x\n";
  check_int "malformed database file" 4 (run "query cli_query_bad.db -t a")

let test_query_disconnected () =
  write_file "cli_query_disc.db"
    "database\n\
     relation r1 a b\n\
     relation r2 c d\n\
     row r1 x y\n\
     row r2 u v\n";
  check_int "disconnected scheme" 3 (run "query cli_query_disc.db -t a,c")

let test_query_budget () =
  check_int "tiny fuel exhausts the executor" 5
    (run ("query " ^ gen_args ^ " --fuel 10 -t a0,a4"))

let test_query_artifacts () =
  let code =
    run
      ("query " ^ gen_args
     ^ " -t a0,a4 --trace cli_query.trace.ndjson --metrics \
        cli_query.metrics.json")
  in
  check_int "exit 0 with artifacts" 0 code;
  let trace = read_file "cli_query.trace.ndjson" in
  (match Observe.Export.validate_ndjson_string trace with
  | Ok n -> check "query trace has spans" true (n > 0)
  | Error e -> Alcotest.fail ("invalid query trace: " ^ e));
  check "reducer span present" true (contains trace "relalg.reduce");
  check "join span present" true (contains trace "relalg.join");
  match Observe.Export.validate_metrics_string (read_file "cli_query.metrics.json") with
  | Ok n -> check "query metrics instruments" true (n > 0)
  | Error e -> Alcotest.fail ("invalid query metrics: " ^ e)

(* ------------------------------------------------------- classify *)

(* The CLI's own scale-class output, read back and classified: the
   report comes from the per-component path and must equal the
   library's [Minconn.report] on the parsed file. A whole-graph γ scan
   does not finish on this input. *)
let test_classify_scale_output () =
  let file = "cli_scale62.bigraph" and out = "cli_scale62.report" in
  check_int "generate" 0
    (Sys.command
       (Printf.sprintf "%s generate --class scale-chordal62 --size 3000 > %s"
          cli file));
  check_int "classify exits 0" 0
    (Sys.command (Printf.sprintf "%s classify %s > %s" cli file out));
  match Mc_io.Parse.bigraph_of_string (read_file file) with
  | Error _ -> Alcotest.fail "generated file does not parse"
  | Ok nb ->
    check "report = Minconn.report" true
      (read_file out = Minconn.report nb.Mc_io.Parse.graph)

(* [classify --trace] writes a root [parse] span and one root
   [classify] span whose children are the cascade's checks. Fig. 2 is
   one component off (6,1), so every check runs: γ and β, then two
   per side. The report is the untraced one. *)
let test_classify_trace () =
  let f = fixture "classify_trace" Datamodel.Figures.fig2 in
  let out = "cli_classify_trace.out" and path = "cli_classify.trace.ndjson" in
  check_int "classify --trace exits 0" 0
    (Sys.command
       (Printf.sprintf "%s classify %s --trace %s > %s" cli f path out));
  let text = read_file path in
  (match Observe.Export.validate_ndjson_string text with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("invalid classify trace: " ^ e));
  let spans =
    String.split_on_char '\n' text
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           let j = Observe.Json.parse_exn l in
           let field k = Option.get (Observe.Json.member k j) in
           match (field "id", field "parent", field "name") with
           | Jnum id, Jnum parent, Jstr name ->
             (int_of_float id, int_of_float parent, name)
           | _ -> Alcotest.fail "span without id, parent or name")
  in
  let roots name =
    List.filter (fun (_, parent, n) -> parent = 0 && n = name) spans
  in
  check_int "one root parse span" 1 (List.length (roots "parse"));
  match roots "classify" with
  | [ (id, _, _) ] ->
    let children =
      List.filter_map
        (fun (_, parent, n) -> if parent = id then Some n else None)
        spans
    in
    Alcotest.(check (list string))
      "the cascade's checks"
      (List.sort compare
         [
           "classify.chordal_62";
           "classify.chordal_61";
           "classify.h1.alpha";
           "classify.h2.alpha";
           "classify.h2.chordal";
         ])
      (List.sort compare children);
    Alcotest.(check string)
      "report = Minconn.report"
      (Minconn.report Datamodel.Figures.fig2.Datamodel.Figures.graph)
      (read_file out)
  | l ->
    Alcotest.failf "expected one root classify span, got %d" (List.length l)

(* The CLI reads back its own output at a size whose name lines exceed
   the parser's 64 KiB line cap unless the emitter splits them: a
   10^5-node scale-chordal62 file, solved on terminals inside one block,
   must exit 0 with the answer the library gives on the generator's
   graph. *)
let test_solve_scale_output () =
  let file = "cli_scale62_1e5.bigraph" and out = "cli_scale62_1e5.out" in
  check_int "generate" 0
    (Sys.command
       (Printf.sprintf
          "%s generate --class scale-chordal62 --size 100000 --seed 4 > %s" cli
          file));
  let inst =
    Workloads.Gen_scale.make Workloads.Gen_scale.Chordal62 ~target_n:100_000
      ~seed:4
  in
  let graph = Workloads.Gen_scale.to_bigraph inst in
  let nb =
    {
      Mc_io.Parse.graph;
      left_names =
        Array.init (Bipartite.Bigraph.nl graph) (fun i -> Printf.sprintf "a%d" i);
      right_names =
        Array.init (Bipartite.Bigraph.nr graph) (fun j -> Printf.sprintf "r%d" j);
    }
  in
  let p =
    Workloads.Gen_scale.block_terminals inst
      ~block:(Workloads.Gen_scale.n_blocks inst / 2)
      ~k:3
  in
  let terminals =
    Graphs.Iset.elements p
    |> List.map (fun v -> nb.Mc_io.Parse.left_names.(v))
    |> String.concat ","
  in
  check_int "solve exits 0" 0
    (Sys.command
       (Printf.sprintf "%s solve %s -t %s > %s" cli file terminals out));
  match Minconn.solve graph ~p with
  | Error e -> Alcotest.failf "library solve: %s" (Minconn.Errors.to_string e)
  | Ok s ->
    Alcotest.(check string)
      "answer = Minconn.solve"
      ("method: "
      ^ Serve.Render.method_name s.Minconn.method_used
      ^ "\n"
      ^ Serve.Render.tree_block nb s.Minconn.tree)
      (read_file out)

let () =
  Alcotest.run "cli"
    [
      ( "exit-codes",
        [
          Alcotest.test_case "0 exact" `Quick test_exit_exact;
          Alcotest.test_case "2 degraded" `Quick test_exit_degraded;
          Alcotest.test_case "3 no cover" `Quick test_exit_no_cover;
          Alcotest.test_case "4 input error" `Quick test_exit_input_error;
          Alcotest.test_case "5 exhausted" `Quick test_exit_budget_exhausted;
        ] );
      ( "batch",
        [
          Alcotest.test_case "0 all exact" `Quick test_batch_all_exact;
          Alcotest.test_case "worst code wins" `Quick test_batch_worst_code;
          Alcotest.test_case "option misuse" `Quick test_batch_option_misuse;
        ] );
      ( "observability",
        [
          Alcotest.test_case "per-rung artifacts" `Quick test_trace_artifacts;
          Alcotest.test_case "artifacts on failure" `Quick
            test_trace_on_failure;
          Alcotest.test_case "parse and render spans" `Quick
            test_trace_front_end;
          Alcotest.test_case "compile and evolve spans" `Quick
            test_trace_compile_evolve;
          Alcotest.test_case "CRLF fixtures read alike" `Quick
            test_crlf_fixtures;
        ] );
      ( "query",
        [
          Alcotest.test_case "0 answered" `Quick test_query_answers;
          Alcotest.test_case "4 input errors" `Quick test_query_input_errors;
          Alcotest.test_case "3 disconnected" `Quick test_query_disconnected;
          Alcotest.test_case "5 exhausted" `Quick test_query_budget;
          Alcotest.test_case "observability artifacts" `Quick
            test_query_artifacts;
        ] );
      ( "classify",
        [
          Alcotest.test_case "scale-chordal62 output reads back" `Quick
            test_classify_scale_output;
          Alcotest.test_case "--trace records the cascade" `Quick
            test_classify_trace;
          Alcotest.test_case "10^5 scale-chordal62 output solves" `Quick
            test_solve_scale_output;
        ] );
      ( "compile",
        [ Alcotest.test_case "exit codes" `Quick test_compile_exit_codes ] );
    ]
