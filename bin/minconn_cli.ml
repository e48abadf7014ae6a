(* minconn: command-line interface to the library.

   classify  — chordality/acyclicity profile of a bipartite graph file
   solve     — minimal connection (Steiner) over named terminals
   relations — Algorithm 1: minimum-relation connection
   generate  — emit random instances of each chordality class
   figures   — print the paper-figure instances
   demo      — the Fig. 1 walk-through *)

open Cmdliner
open Bipartite
open Steiner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Every command reads its schema here, inside one [parse] span, so a
   traced run accounts for the file front end as well as the engine.
   The schema comes with the name index the parser built for it, so a
   command resolves names without indexing them again. *)
let load_bigraph ?(trace = Observe.Trace.disabled) path =
  let module T = Observe.Trace in
  T.span trace "parse" (fun () ->
      let text = read_file path in
      T.add_attr trace "bytes" (T.Int (String.length text));
      match Mc_io.Parse.indexed_bigraph_of_string text with
      | Ok ((nb, _) as loaded) ->
        T.add_attr trace "nodes" (T.Int (Bigraph.n nb.Mc_io.Parse.graph));
        T.add_attr trace "edges" (T.Int (Bigraph.m nb.Mc_io.Parse.graph));
        Ok loaded
      | Error e -> Error (Format.asprintf "%s: %a" path Mc_io.Parse.pp_error e))

(* Every subcommand but [serve] runs once and exits within
   milliseconds. A cold [solve --queries] on a 10^4-node schema
   allocates more than the runtime's default nursery (256k words,
   2 MB) through it, so every page of that nursery is a fresh page
   fault; one of [one_shot_minor_words] is faulted in once and reused,
   which saves more than its extra minor collections cost (16k and 64k
   words measure the same). [serve] is long-lived and keeps the
   runtime's default. An [s=] in OCAMLRUNPARAM (or CAMLRUNPARAM, which
   the runtime reads when OCAMLRUNPARAM is unset) still sets the
   nursery. *)
let one_shot_minor_words = 32 * 1024

let one_shot () =
  let runparam =
    match Sys.getenv_opt "OCAMLRUNPARAM" with
    | Some p -> p
    | None -> Option.value ~default:"" (Sys.getenv_opt "CAMLRUNPARAM")
  in
  if
    not
      (List.exists
         (String.starts_with ~prefix:"s=")
         (String.split_on_char ',' runparam))
  then Gc.set { (Gc.get ()) with minor_heap_size = one_shot_minor_words }

(* Exit-code contract (documented in README "Budgets and graceful
   degradation"): 0 solved-exact, 2 solved-degraded, 3 no cover,
   4 input error, 5 budget exhausted under --no-degrade. *)
let exit_input_error = 4

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline msg;
    exit exit_input_error

(* The recorders behind [--trace FILE] and [--metrics FILE], and the
   function that writes each given file. A recorder whose file is not
   given is disabled, except that [live_metrics] records metrics
   anyway (serve answers GET /metrics from them). Commands call the
   flush on every exit path, error exits included, so an aborted run
   still leaves what it recorded up to that point. *)
let observability ?(live_metrics = false) ?metrics_file trace_file =
  let trace =
    if trace_file = None then Observe.Trace.disabled
    else Observe.Trace.make ()
  in
  let metrics =
    if live_metrics || metrics_file <> None then Observe.Metrics.make ()
    else Observe.Metrics.disabled
  in
  let flush () =
    Option.iter (fun path -> Observe.Export.write_trace ~path trace) trace_file;
    Option.iter
      (fun path -> Observe.Export.write_metrics ~path metrics)
      metrics_file
  in
  (trace, metrics, flush)

let trace_file_arg doc =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let compile_cmd =
  let run path trace_file =
    one_shot ();
    let trace, _, write_trace = observability trace_file in
    let nb =
      match load_bigraph ~trace path with
      | Ok (nb, _) -> nb
      | Error msg ->
        prerr_endline msg;
        write_trace ();
        exit exit_input_error
    in
    let graph = nb.Mc_io.Parse.graph in
    let hash =
      Observe.Trace.span trace "schema_hash" (fun () ->
          Minconn.Compiled.schema_hash graph)
    in
    ignore (Minconn.Compiled.compile ~trace graph : Minconn.Compiled.t);
    write_trace ();
    Printf.printf "minconn: schema=%s nodes=%d edges=%d\n" hash
      (Bigraph.n graph) (Bigraph.m graph)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Parse and compile a schema, and print its content hash and \
          size. Exit codes: 0 compiled, 4 input error (bad file).")
    Term.(
      const run $ path
      $ trace_file_arg
          "Write an NDJSON span stream (parse, schema hash and \
           compile) to $(docv)")

(* ------------------------------------------------------------ classify *)

let classify_cmd =
  let run path trace_file =
    one_shot ();
    let trace, _, write_trace = observability trace_file in
    let report =
      Result.map
        (fun (nb, _) -> Minconn.report ~trace nb.Mc_io.Parse.graph)
        (load_bigraph ~trace path)
    in
    write_trace ();
    print_string (or_die report)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "classify"
       ~doc:"Report the chordality/acyclicity profile of a bipartite graph")
    Term.(
      const run $ path
      $ trace_file_arg
          "Write an NDJSON span stream (parse, classify and the \
           classifier's per-component checks) to $(docv)")

(* --------------------------------------------------------------- solve *)

(* The answer text is owned by Serve.Render so the network service and
   this CLI stay byte-identical by construction (the serve-smoke rule
   diffs one against the other). *)
let print_tree nb (tree : Tree.t) = print_string (Serve.Render.tree_block nb tree)

(* One structured stderr line per ladder event, greppable key=value. *)
let report_provenance prov =
  let module D = Minconn.Degrade in
  let module E = Minconn.Errors in
  List.iter
    (fun a ->
      Printf.eprintf "minconn: rung=%s status=abandoned reason=%s\n%!"
        (E.rung_name a.D.rung) (D.reason_name a.D.why))
    prov.D.attempts;
  Printf.eprintf "minconn: rung=%s status=ran guarantee=%s\n%!"
    (E.rung_name prov.D.ran)
    (D.guarantee_name prov.D.guarantee)

let method_name = Serve.Render.method_name

(* One query per non-empty, non-comment line; names separated by commas
   and/or whitespace. *)
let parse_queries_file path =
  let split line =
    String.split_on_char ' '
      (String.map (function ',' | '\t' -> ' ' | c -> c) line)
    |> List.filter (fun s -> s <> "")
  in
  read_file path |> String.split_on_char '\n'
  |> List.map String.trim
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map split

(* Batch mode: compile the schema once, answer every terminal set from
   the session, report one status line per query, and exit with the
   most severe per-query code (the codes are ordered 0 < 2 < 3 < 4 < 5
   by severity, so a numeric max is the contract). *)
let run_batch ?compiled nb ~names ~queries ~timeout_ms ~fuel ~no_degrade
    ~trace ~metrics ~flush_observability =
  let compiled =
    match compiled with
    | Some c -> c
    | None -> Minconn.Compiled.compile ~trace ~metrics nb.Mc_io.Parse.graph
  in
  let session = Minconn.Session.create ~trace ~metrics compiled in
  let resolved =
    List.map (fun query -> (query, Mc_io.Parse.resolve names query)) queries
  in
  let ps = List.filter_map (fun (_, r) -> Result.to_option r) resolved in
  (* A fresh budget per query: one slow query degrades itself, not
     the rest of the batch. *)
  let make_budget _ =
    match (timeout_ms, fuel) with
    | None, None -> Minconn.Budget.unlimited
    | _ -> Minconn.Budget.make ?timeout_ms ?fuel ()
  in
  let answers =
    Minconn.Session.solve_many ~make_budget ~degrade:(not no_degrade) session
      ps
  in
  let worst = ref 0 in
  let remaining = ref answers in
  Observe.Trace.span trace "render" (fun () ->
      List.iteri
        (fun i (names, r) ->
          let idx = i + 1 in
          Printf.printf "-- query %d: %s --\n" idx
            (String.concat ", " names);
          let code =
            match r with
            | Error n ->
              Printf.printf "error: unknown terminal %s\n" n;
              exit_input_error
            | Ok _ -> (
              let answer =
                match !remaining with
                | a :: rest ->
                  remaining := rest;
                  a
                | [] -> assert false (* one answer per resolved query *)
              in
              match answer with
              | Error e ->
                Printf.printf "error: %s\n" (Minconn.Errors.to_string e);
                Minconn.Errors.exit_code e
              | Ok s ->
                Printf.printf "method: %s\n"
                  (method_name s.Minconn.method_used);
                print_tree nb s.Minconn.tree;
                if Minconn.Degrade.degraded s.Minconn.provenance then begin
                  report_provenance s.Minconn.provenance;
                  2
                end
                else 0)
          in
          Printf.printf "minconn: query=%d code=%d\n" idx code;
          if code > !worst then worst := code)
        resolved;
      Printf.printf "minconn: queries=%d exit=%d\n" (List.length queries)
        !worst);
  flush_observability ();
  exit !worst

let solve_cmd =
  let run path terminals queries_file timeout_ms fuel no_degrade trace_file
      metrics_file =
    one_shot ();
    let trace, metrics, flush_observability =
      observability ?metrics_file trace_file
    in
    let die code =
      flush_observability ();
      exit code
    in
    let nb, names = or_die (load_bigraph ~trace path) in
    match (terminals, queries_file) with
    | [], None ->
      prerr_endline "minconn: error=missing-terminals (use -t or --queries)";
      die exit_input_error
    | _ :: _, Some _ ->
      prerr_endline "minconn: error=conflicting-options (-t and --queries)";
      die exit_input_error
    | [], Some qpath ->
      run_batch nb ~names
        ~queries:(parse_queries_file qpath)
        ~timeout_ms ~fuel ~no_degrade ~trace ~metrics ~flush_observability
    | _ :: _, None -> (
      let p =
        match Mc_io.Parse.resolve names terminals with
        | Ok p -> p
        | Error n ->
          Printf.eprintf "minconn: error=unknown-terminal name=%s\n" n;
          die exit_input_error
      in
      let budget =
        match (timeout_ms, fuel) with
        | None, None -> Minconn.Budget.unlimited
        | _ -> Minconn.Budget.make ?timeout_ms ?fuel ()
      in
      let g = nb.Mc_io.Parse.graph in
      let answer =
        Observe.Trace.span trace "solve"
          ~attrs:
            [
              ("terminals", Observe.Trace.Int (Graphs.Iset.cardinal p));
              ("nodes", Observe.Trace.Int (Bigraph.n g));
            ]
        @@ fun () ->
        let compiled = Minconn.Compiled.compile ~trace ~metrics g in
        Minconn.Session.query
          ~make_budget:(fun () -> budget)
          ~degrade:(not no_degrade)
          (Minconn.Session.create ~trace ~metrics compiled)
          ~p
      in
      match answer with
      | Error e ->
        Printf.eprintf "minconn: error=%s\n" (Minconn.Errors.to_string e);
        die (Minconn.Errors.exit_code e)
      | Ok s ->
        Printf.printf "method: %s\n" (method_name s.Minconn.method_used);
        print_tree nb s.Minconn.tree;
        let degraded = Minconn.Degrade.degraded s.Minconn.provenance in
        flush_observability ();
        if degraded then begin
          report_provenance s.Minconn.provenance;
          exit 2
        end)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let terminals =
    Arg.(
      value & opt (list string) []
      & info [ "t"; "terminals" ] ~docv:"NAMES"
          ~doc:"Comma-separated object names to connect (exactly one of \
                $(opt) and --queries is required)")
  in
  let queries_file =
    Arg.(
      value & opt (some file) None
      & info [ "queries" ] ~docv:"FILE"
          ~doc:"Batch mode: compile the graph once and answer one query \
                per line of $(docv) (names separated by commas or \
                spaces; blank lines and # comments skipped). Prints a \
                per-query status line and exits with the most severe \
                per-query code.")
  in
  let timeout_ms =
    Arg.(
      value & opt (some int) None
      & info [ "timeout" ] ~docv:"MS"
          ~doc:"Wall-clock budget in milliseconds; on exhaustion the \
                solver degrades down the ladder (see --no-degrade)")
  in
  let fuel =
    Arg.(
      value & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:"Fuel budget: elimination steps / DP subset expansions")
  in
  let no_degrade =
    Arg.(
      value & flag
      & info [ "no-degrade" ]
          ~doc:"Fail with exit code 5 instead of degrading to a weaker \
                rung when the budget is exhausted")
  in
  let trace_file =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write an NDJSON span stream (classify, ladder rungs, \
                verify) to $(docv)")
  in
  let metrics_file =
    Arg.(
      value & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write a JSON metrics snapshot (counters, histograms) to \
                $(docv)")
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Find a minimal connection over the terminals. Exit codes: 0 \
          solved exactly, 2 solved degraded, 3 no cover, 4 input error, \
          5 budget exhausted with --no-degrade. With --queries, the \
          exit code is the most severe per-query code.")
    Term.(
      const run $ path $ terminals $ queries_file $ timeout_ms $ fuel
      $ no_degrade $ trace_file $ metrics_file)

(* -------------------------------------------------------------- evolve *)

let load_deltas ~names nb path =
  match Mc_io.Parse.delta_steps_of_string ~names nb (read_file path) with
  | Ok v -> v
  | Error e ->
    prerr_endline (Format.asprintf "%s: %a" path Mc_io.Parse.pp_error e);
    exit exit_input_error

(* Apply a delta file to a schema, component-scoped: untouched
   components keep their node sets and profiles.
   Status and per-delta stats go to stderr so --emit and --queries
   stdout stays clean (the evolve-smoke rule diffs it against solve
   on the pre-evolved file). *)
let evolve_cmd =
  let run path dfile emit queries_file trace_file =
    one_shot ();
    let trace, _, write_trace = observability trace_file in
    let nb, names = or_die (load_bigraph ~trace path) in
    let steps, evolved, evolved_names = load_deltas ~names nb dfile in
    let base = Minconn.Compiled.compile ~trace nb.Mc_io.Parse.graph in
    (* The parser applied each op once, to validate it: the plan is
       patched around the graphs it produced, with no op applied again
       and no error left to report. *)
    let compiled, stats = Minconn.Compiled.patch_all ~trace base steps in
    List.iter
      (fun (s : Minconn.Compiled.delta_stats) ->
        Printf.eprintf
          "minconn: delta='%s' noop=%b fallback=%b recompiled=%d reused=%d\n"
          (Minconn.Delta.to_string s.Minconn.Compiled.op)
          s.Minconn.Compiled.noop s.Minconn.Compiled.fallback
          (List.length s.Minconn.Compiled.recompiled)
          s.Minconn.Compiled.reused)
      stats;
    Printf.eprintf "minconn: deltas=%d components=%d\n%!" (List.length steps)
      (Minconn.Compiled.n_components compiled);
    match queries_file with
    | Some qpath ->
      run_batch ~compiled evolved ~names:evolved_names
        ~queries:(parse_queries_file qpath)
        ~timeout_ms:None ~fuel:None ~no_degrade:false ~trace
        ~metrics:Observe.Metrics.disabled ~flush_observability:write_trace
    | None ->
      write_trace ();
      if emit then print_string (Mc_io.Parse.bigraph_to_string evolved)
      else print_string (Minconn.report evolved.Mc_io.Parse.graph)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let dfile =
    Arg.(
      required
      & opt (some file) None
      & info [ "deltas" ] ~docv:"DFILE"
          ~doc:"Delta file to apply: '+edge A r1', '-edge A r1', \
                '+relation r9 A B', '-relation r3', one per line after a \
                'deltas' header; later lines see the schema as evolved \
                by earlier ones.")
  in
  let emit =
    Arg.(
      value & flag
      & info [ "emit" ]
          ~doc:"Print the evolved schema as a bipartite graph file \
                instead of its classification report")
  in
  let queries_file =
    Arg.(
      value & opt (some file) None
      & info [ "queries" ] ~docv:"FILE"
          ~doc:"Answer one query per line of $(docv) against the \
                evolved schema (same format and output as solve \
                --queries), from the incrementally patched plan.")
  in
  Cmd.v
    (Cmd.info "evolve"
       ~doc:
         "Apply a schema delta file and recompile only the touched \
          components. Prints the evolved schema's classification \
          (or the schema itself with --emit, or query answers with \
          --queries). Exit codes: 0 evolved, 4 input error (bad file \
          or delta), and with --queries the most severe per-query \
          code.")
    Term.(
      const run $ path $ dfile $ emit $ queries_file
      $ trace_file_arg
          "Write an NDJSON span stream (parse, compile, the deltas' \
           spans, and with --queries the queries and render) to $(docv)")

let relations_cmd =
  let run path terminals =
    one_shot ();
    let nb, names = or_die (load_bigraph path) in
    let p =
      match Mc_io.Parse.resolve names terminals with
      | Ok p -> p
      | Error n ->
        prerr_endline ("unknown terminal: " ^ n);
        exit exit_input_error
    in
    (* The typed front door validates empty/out-of-range/disconnected
       terminal sets exactly like `solve` does. *)
    match Minconn.solve_min_relations nb.Mc_io.Parse.graph ~p with
    | Ok r ->
      Printf.printf "minimum relation count: %d\n" r.Algorithm1.v2_count;
      print_tree nb r.Algorithm1.tree
    | Error e ->
      Printf.eprintf "minconn: error=%s\n" (Minconn.Errors.to_string e);
      exit (Minconn.Errors.exit_code e)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let terminals =
    Arg.(
      non_empty & opt (list string) []
      & info [ "t"; "terminals" ] ~docv:"NAMES"
          ~doc:"Comma-separated object names to connect")
  in
  Cmd.v
    (Cmd.info "relations"
       ~doc:"Algorithm 1: connect the terminals with the fewest relations")
    Term.(const run $ path $ terminals)

let interpretations_cmd =
  let run path terminals k =
    one_shot ();
    let nb, names = or_die (load_bigraph path) in
    let p =
      match Mc_io.Parse.resolve names terminals with
      | Ok p -> p
      | Error n ->
        prerr_endline ("unknown terminal: " ^ n);
        exit exit_input_error
    in
    let trees =
      Kbest.enumerate ~max_trees:k (Bigraph.ugraph nb.Mc_io.Parse.graph)
        ~terminals:p
    in
    if trees = [] then begin
      prerr_endline "terminals are not connected";
      exit (Minconn.Errors.exit_code Minconn.Errors.Disconnected_terminals)
    end;
    List.iteri
      (fun i tree ->
        Printf.printf "-- interpretation %d --
" (i + 1);
        print_tree nb tree)
      trees
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let terminals =
    Arg.(
      non_empty & opt (list string) []
      & info [ "t"; "terminals" ] ~docv:"NAMES"
          ~doc:"Comma-separated object names to connect")
  in
  let k = Arg.(value & opt int 3 & info [ "k" ] ~docv:"K") in
  Cmd.v
    (Cmd.info "interpretations"
       ~doc:"Enumerate the k smallest alternative connections")
    Term.(const run $ path $ terminals $ k)

(* -------------------------------------------------------------- repair *)

let repair_cmd =
  let run path =
    one_shot ();
    let text = read_file path in
    match Mc_io.Parse.schema_of_string text with
    | Error e ->
      prerr_endline (Format.asprintf "%s: %a" path Mc_io.Parse.pp_error e);
      exit exit_input_error
    | Ok schema -> print_string (Datamodel.Repair.report schema)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "repair"
       ~doc:"Suggest deletions/merges that move a schema to a better              acyclicity degree")
    Term.(const run $ path)

(* ----------------------------------------------------------------- ask *)

let ask_cmd =
  let run path query_text =
    one_shot ();
    let text = read_file path in
    match Mc_io.Parse.database_of_string text with
    | Error e ->
      prerr_endline (Format.asprintf "%s: %a" path Mc_io.Parse.pp_error e);
      exit exit_input_error
    | Ok db -> (
      match Mc_io.Parse.query_of_string query_text with
      | Error e ->
        prerr_endline (Format.asprintf "query: %a" Mc_io.Parse.pp_error e);
        exit exit_input_error
      | Ok (objects, where) -> (
        match Datamodel.Interface.answer db ~where ~query:objects with
        | Ok a ->
          Printf.printf "relations used: %s
"
            (String.concat ", "
               a.Datamodel.Interface.connection.Datamodel.Query.relations_used);
          Format.printf "%a@." Relalg.Relation.pp a.Datamodel.Interface.result
        | Error (Datamodel.Query.Unknown_object o) ->
          prerr_endline ("unknown object: " ^ o);
          exit exit_input_error
        | Error Datamodel.Query.Disconnected ->
          prerr_endline "objects cannot be connected";
          exit (Minconn.Errors.exit_code Minconn.Errors.Disconnected_terminals)
        | Error (Datamodel.Query.Not_applicable m) ->
          prerr_endline m;
          exit exit_input_error))
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DBFILE") in
  let query =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:"e.g. 'connect emp, manager where dept = toys'")
  in
  Cmd.v
    (Cmd.info "ask"
       ~doc:"Answer a universal-relation query against a database file")
    Term.(const run $ path $ query)

(* --------------------------------------------------------------- query *)

(* The full pipeline the paper motivates, end to end: a populated
   database gives the scheme, Algorithm 1 finds the minimal conceptual
   connection for the named objects, and the Yannakakis engine executes
   that connection over the actual tuples. *)
let query_cmd =
  let run db_file gen size rows domain dangling seed bag terminals naive
      limit timeout_ms fuel trace_file metrics_file =
    one_shot ();
    let trace, metrics, flush_observability =
      observability ?metrics_file trace_file
    in
    let die code =
      flush_observability ();
      exit code
    in
    let semantics =
      if bag then Relalg.Relation.Bag else Relalg.Relation.Set
    in
    let db =
      match (db_file, gen) with
      | Some _, Some _ ->
        prerr_endline "minconn: error=conflicting-options (DBFILE and --gen)";
        die exit_input_error
      | None, None ->
        prerr_endline "minconn: error=missing-database (give DBFILE or --gen)";
        die exit_input_error
      | Some path, None -> (
        match Mc_io.Parse.database_of_string ~semantics (read_file path) with
        | Ok db -> db
        | Error e ->
          prerr_endline (Format.asprintf "%s: %a" path Mc_io.Parse.pp_error e);
          die exit_input_error)
      | None, Some family -> (
        let rng = Workloads.Rng.make ~seed in
        match family with
        | "chain" ->
          Workloads.Gen_db.chain ~semantics ~dangling rng ~length:size ~rows
            ~domain
        | "acyclic" -> Workloads.Gen_db.acyclic ~semantics rng
                         ~n_relations:size ~rows
        | f ->
          Printf.eprintf
            "minconn: error=unknown-family name=%s (chain|acyclic)\n" f;
          die exit_input_error)
    in
    if terminals = [] then begin
      prerr_endline "minconn: error=missing-terminals (use -t)";
      die exit_input_error
    end;
    let schema =
      match Datamodel.Schema.of_database db with
      | s -> s
      | exception Invalid_argument msg ->
        Printf.eprintf "minconn: error=bad-schema msg=%s\n" msg;
        die exit_input_error
    in
    let p =
      let indices =
        List.map
          (fun name ->
            match Datamodel.Schema.object_index schema name with
            | Some i -> i
            | None ->
              Printf.eprintf "minconn: error=unknown-terminal name=%s\n" name;
              die exit_input_error)
          terminals
      in
      Graphs.Iset.of_list indices
    in
    let budget =
      match (timeout_ms, fuel) with
      | None, None -> Minconn.Budget.unlimited
      | _ -> Minconn.Budget.make ?timeout_ms ?fuel ()
    in
    let session =
      Minconn.Session.create ~trace ~metrics (Datamodel.Schema.compiled schema)
    in
    match Minconn.Session.query_relations session ~p with
    | Error e ->
      Printf.eprintf "minconn: error=%s\n" (Minconn.Errors.to_string e);
      die (Minconn.Errors.exit_code e)
    | Ok r -> (
      let c =
        Datamodel.Query.connection_of_tree schema ~query:p
          r.Steiner.Algorithm1.tree ~optimal:true
      in
      let output =
        List.filter (Datamodel.Schema.is_attribute schema) terminals
      in
      let sub =
        Relalg.Database.make (Datamodel.Interface.relations_for db c ~output)
      in
      Printf.printf "db: relations=%d tuples=%d semantics=%s\n"
        (Relalg.Database.n_relations db)
        (Relalg.Database.total_tuples db)
        (if bag then "bag" else "set");
      Printf.printf "connection: relations=%s auxiliary=%s\n"
        (String.concat "," c.Datamodel.Query.relations_used)
        (match c.Datamodel.Query.auxiliary with
        | [] -> "-"
        | aux -> String.concat "," aux);
      let plan_name =
        if naive then "naive-join"
        else
          match Relalg.Yannakakis.plan sub with
          | Relalg.Yannakakis.Acyclic _ -> "yannakakis"
          | Relalg.Yannakakis.Naive_fallback -> "naive-fallback"
      in
      Printf.printf "method: %s\n" plan_name;
      let ctx = Relalg.Exec.make ~budget ~trace ~metrics () in
      let t0 = Unix.gettimeofday () in
      let answer =
        if naive then Relalg.Yannakakis.evaluate_naive ~ctx sub ~output
        else Relalg.Yannakakis.evaluate ~ctx sub ~output
      in
      let ms = (Unix.gettimeofday () -. t0) *. 1000. in
      match answer with
      | Error e ->
        Printf.eprintf "minconn: error=%s\n" (Minconn.Errors.to_string e);
        die (Minconn.Errors.exit_code e)
      | Ok result ->
        let n = Relalg.Relation.cardinality result in
        let attrs = Relalg.Relation.attrs result in
        if attrs <> [] then begin
          Printf.printf "result: %s\n" (String.concat " | " attrs);
          let shown = min n limit in
          for i = 0 to shown - 1 do
            Printf.printf "  %s\n"
              (String.concat " | " (Relalg.Relation.row result i))
          done;
          if shown < n then
            Printf.printf "(%d tuples, showing %d)\n" n shown
          else Printf.printf "(%d tuples)\n" n
        end
        else
          (* Boolean query: no output attributes, only a cardinality
             (the witness count under bag semantics, 0/1 under set). *)
          Printf.printf "result: %s (%d)\n"
            (if n > 0 then "yes" else "no")
            n;
        (* Timing goes to stderr so stdout stays deterministic. *)
        Printf.eprintf "minconn: query-ms=%.1f\n" ms;
        flush_observability ())
  in
  let db_file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"DBFILE")
  in
  let gen =
    Arg.(
      value & opt (some string) None
      & info [ "gen" ] ~docv:"FAMILY"
          ~doc:"Generate the database instead of reading $(i,DBFILE): \
                $(b,chain) (path schema r_i(a_i,a_i+1)) or $(b,acyclic) \
                (random alpha-acyclic scheme).")
  in
  let size =
    Arg.(
      value & opt int 5
      & info [ "size" ] ~docv:"N"
          ~doc:"Generator: number of relations (chain length)")
  in
  let rows =
    Arg.(
      value & opt int 1000
      & info [ "rows" ] ~docv:"R"
          ~doc:"Generator: tuples per relation before dedup")
  in
  let domain =
    Arg.(
      value & opt int 1000
      & info [ "domain" ] ~docv:"D"
          ~doc:"Generator: value dictionary size (chain only)")
  in
  let dangling =
    Arg.(
      value & opt float 0.0
      & info [ "dangling" ] ~docv:"F"
          ~doc:"Generator (chain): fraction of the last relation's \
                tuples made dangling — unjoinable values a semijoin \
                reducer prunes up front")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Generator seed")
  in
  let bag =
    Arg.(
      value & flag
      & info [ "bag" ]
          ~doc:"Bag semantics: duplicate rows keep their multiplicities \
                through joins and projections (default: set semantics, \
                duplicates collapse)")
  in
  let terminals =
    Arg.(
      value & opt (list string) []
      & info [ "t"; "terminals" ] ~docv:"NAMES"
          ~doc:"Comma-separated object names (attributes and/or \
                relations) to connect; attribute terminals become the \
                output columns, in order")
  in
  let naive =
    Arg.(
      value & flag
      & info [ "naive" ]
          ~doc:"Skip the semijoin reducer and evaluate with a plain \
                left-fold join (baseline for comparison)")
  in
  let limit =
    Arg.(
      value & opt int 10
      & info [ "limit" ] ~docv:"K"
          ~doc:"Print at most $(docv) result rows (default 10)")
  in
  let timeout_ms =
    Arg.(
      value & opt (some int) None
      & info [ "timeout" ] ~docv:"MS" ~doc:"Wall-clock budget in ms")
  in
  let fuel =
    Arg.(
      value & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:"Fuel budget: rows scanned/emitted by the executor count \
                against it")
  in
  let trace_file =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write an NDJSON span stream (relalg.reduce, relalg.join) \
                to $(docv)")
  in
  let metrics_file =
    Arg.(
      value & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write a JSON metrics snapshot (relalg.* counters) to \
                $(docv)")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Answer a conjunctive query end to end: compile the database's \
          scheme, find the minimal conceptual connection for the \
          terminals (Algorithm 1), and execute it with the Yannakakis \
          engine. Exit codes: 0 answered, 3 disconnected, 4 input \
          error, 5 budget exhausted.")
    Term.(
      const run $ db_file $ gen $ size $ rows $ domain $ dangling $ seed
      $ bag $ terminals $ naive $ limit $ timeout_ms $ fuel $ trace_file
      $ metrics_file)

(* --------------------------------------------------------------- serve *)

let serve_cmd =
  let run path deltas_file host port max_inflight watermark pressure_fuel
      timeout_ms io_timeout_ms max_body no_degrade metrics_file trace_file =
    if max_inflight < 1 then begin
      prerr_endline "minconn: error=invalid-max-inflight (need >= 1)";
      exit exit_input_error
    end;
    let trace, metrics, flush_observability =
      observability ~live_metrics:true ?metrics_file trace_file
    in
    let base, base_names = or_die (load_bigraph ~trace path) in
    (* --deltas: serve the evolved schema from the start. The parser
       already applied every op, so the server compiles the evolved
       graph once. *)
    let nb, names =
      match deltas_file with
      | None -> (base, base_names)
      | Some dfile ->
        let _, evolved, names = load_deltas ~names:base_names base dfile in
        (evolved, names)
    in
    let config =
      {
        Serve.Server.default_config with
        host;
        port;
        max_inflight;
        degrade_watermark =
          (match watermark with
          | Some w -> w
          | None -> max 1 (3 * max_inflight / 4));
        pressure_fuel;
        request_timeout_ms = timeout_ms;
        io_timeout_ms;
        max_body_bytes = max_body;
        degrade = not no_degrade;
      }
    in
    match Serve.Server.create ~config ~metrics ~trace ~names nb with
    | Error msg ->
      Printf.eprintf "minconn: error=serve-bind msg=%s\n" msg;
      exit exit_input_error
    | Ok server ->
      let stop _ = Serve.Server.stop server in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Printf.printf
        "minconn: serving %s port=%d max-inflight=%d watermark=%d\n%!" path
        (Serve.Server.port server) config.Serve.Server.max_inflight
        config.Serve.Server.degrade_watermark;
      Serve.Server.run server;
      flush_observability ();
      let c name =
        Option.value ~default:0 (Observe.Metrics.find_counter metrics name)
      in
      Printf.printf
        "minconn: drained requests=%d shed=%d degraded=%d errors=%d\n%!"
        (c "serve.requests") (c "serve.shed") (c "serve.degraded")
        (c "serve.errors")
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let deltas_file =
    Arg.(
      value & opt (some file) None
      & info [ "deltas" ] ~docv:"DFILE"
          ~doc:"Apply this delta file to the schema before serving (see \
                the evolve subcommand). Further deltas can be applied \
                live via POST /schema/delta.")
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address")
  in
  let port =
    Arg.(
      value & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Listen port (0 picks an ephemeral one; the bound port \
                is printed on the startup line)")
  in
  let max_inflight =
    Arg.(
      value & opt int 32
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Admission cap: beyond $(docv) concurrent connections, \
                new ones get an immediate 503 overloaded response")
  in
  let watermark =
    Arg.(
      value & opt (some int) None
      & info [ "watermark" ] ~docv:"N"
          ~doc:"Degradation watermark (default 3/4 of --max-inflight): \
                above $(docv) in-flight connections, queries answer \
                from cheaper ladder rungs under a small fuel budget \
                and say so in X-Minconn-Pressure/-Rung headers")
  in
  let pressure_fuel =
    Arg.(
      value & opt int 64
      & info [ "pressure-fuel" ] ~docv:"N"
          ~doc:"Fuel for each query answered above the watermark")
  in
  let timeout_ms =
    Arg.(
      value & opt int 5000
      & info [ "timeout" ] ~docv:"MS" ~doc:"Per-request wall-clock budget")
  in
  let io_timeout_ms =
    Arg.(
      value & opt int 10000
      & info [ "io-timeout" ] ~docv:"MS"
          ~doc:"Socket read/write deadline; stalled clients are reaped")
  in
  let max_body =
    Arg.(
      value & opt int (64 * 1024)
      & info [ "max-body" ] ~docv:"BYTES"
          ~doc:"Request body cap (413 beyond it)")
  in
  let no_degrade =
    Arg.(
      value & flag
      & info [ "no-degrade" ]
          ~doc:"Answer 504 on budget exhaustion instead of degrading \
                down the ladder")
  in
  let metrics_file =
    Arg.(
      value & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write the final metrics snapshot to $(docv) on drain \
                (the same document GET /metrics serves live)")
  in
  let trace_file =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Record per-request spans and write the NDJSON stream \
                to $(docv) on drain")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve minimal-connection queries over HTTP/1.1. POST /solve \
          with a terminal set (names separated by commas or \
          whitespace) answers the same bytes as solve --queries; POST \
          /schema/delta hot-swaps the schema by a delta file without \
          dropping inflight requests; GET /metrics, /trace and \
          /healthz expose observability. SIGTERM or SIGINT drains \
          gracefully: stop accepting, finish in-flight requests, \
          flush artifacts.")
    Term.(
      const run $ path $ deltas_file $ host $ port $ max_inflight $ watermark
      $ pressure_fuel $ timeout_ms $ io_timeout_ms $ max_body $ no_degrade
      $ metrics_file $ trace_file)

(* ------------------------------------------------------------ generate *)

let generate_cmd =
  let run cls seed size =
    one_shot ();
    let rng = Workloads.Rng.make ~seed in
    let graph =
      match cls with
      | "forest" -> Workloads.Gen_bipartite.forest rng ~n:size
      | "62" -> Workloads.Gen_bipartite.chordal_62 rng ~n_right:size ~max_size:4
      | "alpha" ->
        Workloads.Gen_bipartite.alpha_bipartite rng ~n_right:size ~max_size:4
      | "61" -> Workloads.Gen_bipartite.chordal_61_flower rng ~petals:size
      | "gnp" ->
        Workloads.Gen_bipartite.gnp rng ~nl:size ~nr:size ~p:0.3
      | other ->
        (* scale-<family>: the streaming bounded-degree generators.
           [size] is the total node target, not a per-side count, and
           construction goes edge-stream -> CSR, so large instances are
           cheap to build (writing them out as text is the slow part). *)
        (match
           match String.index_opt other '-' with
           | Some 5 when String.sub other 0 5 = "scale" ->
             Workloads.Gen_scale.family_of_string
               (String.sub other 6 (String.length other - 6))
           | _ -> None
         with
        | Some fam ->
          Workloads.Gen_scale.to_bigraph
            (Workloads.Gen_scale.make fam ~target_n:size ~seed)
        | None ->
          prerr_endline
            ("unknown class '" ^ other
           ^ "' (use forest|62|61|alpha|gnp|scale-forest|scale-chordal62|scale-alpha)");
          exit exit_input_error)
    in
    let nb =
      {
        Mc_io.Parse.graph;
        left_names =
          Array.init (Bigraph.nl graph) (fun i -> Printf.sprintf "a%d" i);
        right_names =
          Array.init (Bigraph.nr graph) (fun j -> Printf.sprintf "r%d" j);
      }
    in
    print_string (Mc_io.Parse.bigraph_to_string nb)
  in
  let cls =
    Arg.(
      value & opt string "62"
      & info [ "c"; "class" ] ~docv:"CLASS"
          ~doc:
            "forest, 62, 61, alpha, gnp, or a streaming scale family \
             (scale-forest, scale-chordal62, scale-alpha; $(b,--size) is \
             then the total node target)")
  in
  let seed = Arg.(value & opt int 0 & info [ "s"; "seed" ] ~docv:"SEED") in
  let size = Arg.(value & opt int 8 & info [ "n"; "size" ] ~docv:"N") in
  Cmd.v
    (Cmd.info "generate" ~doc:"Emit a random instance of a chordality class")
    Term.(const run $ cls $ seed $ size)

(* ------------------------------------------------------------ hypergraph *)

let hypergraph_cmd =
  let run path =
    one_shot ();
    let text = read_file path in
    match Mc_io.Parse.hypergraph_of_string text with
    | Error e ->
      prerr_endline (Format.asprintf "%s: %a" path Mc_io.Parse.pp_error e);
      exit exit_input_error
    | Ok (h, _, edge_names) ->
      let module A = Hypergraphs.Acyclicity in
      Printf.printf "degree: %s\n" (A.degree_name (A.degree h));
      Printf.printf "width (min-fill of the 2-section): %d\n"
        (Hypergraphs.Decomposition.width (Hypergraphs.Decomposition.of_hypergraph h));
      List.iter
        (fun goal ->
          match A.why_not h goal with
          | Some w ->
            Format.printf "not %s: %a\n" (A.degree_name goal) A.pp_witness w
          | None -> ())
        [ A.Berge_acyclic; A.Gamma_acyclic; A.Beta_acyclic; A.Alpha_acyclic ];
      ignore edge_names
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "hypergraph"
       ~doc:"Classify a hypergraph file: degree, width and cycle witnesses")
    Term.(const run $ path)

(* ----------------------------------------------------------------- dot *)

let dot_cmd =
  let run path =
    one_shot ();
    let nb, _ = or_die (load_bigraph path) in
    print_string
      (Graphs.Dot.of_bipartite_like
         ~name:(Filename.basename path)
         ~left_labels:(fun i -> nb.Mc_io.Parse.left_names.(i))
         ~right_labels:(fun j -> nb.Mc_io.Parse.right_names.(j))
         ~nl:(Bigraph.nl nb.Mc_io.Parse.graph)
         ~nr:(Bigraph.nr nb.Mc_io.Parse.graph)
         (Bigraph.edges nb.Mc_io.Parse.graph))
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a bipartite graph file to Graphviz DOT")
    Term.(const run $ path)

(* ------------------------------------------------------------- figures *)

let figures_cmd =
  let run () =
    one_shot ();
    List.iter
      (fun (id, l) ->
        let g = l.Datamodel.Figures.graph in
        Printf.printf "%-4s %-55s %d+%d nodes, %d edges\n" id
          l.Datamodel.Figures.title (Bigraph.nl g) (Bigraph.nr g)
          (Bigraph.m g);
        print_string (Minconn.report g);
        print_newline ())
      Datamodel.Figures.all_labeled
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Print and classify the paper's figure instances")
    Term.(const run $ const ())

(* ---------------------------------------------------------------- demo *)

let demo_cmd =
  let run () =
    one_shot ();
    print_endline "Fig. 1 walk-through: query {EMPLOYEE, DATE}";
    let er = Datamodel.Figures.fig1_er in
    Datamodel.Er.interpretations ~k:3 er ~objects:Datamodel.Figures.fig1_query
    |> List.iteri (fun i nodes ->
           Printf.printf "  interpretation %d: {%s}\n" (i + 1)
             (String.concat ", " nodes));
    print_endline "";
    print_endline "Universal-relation interface over a small company database:";
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
    in
    (match Datamodel.Interface.answer db ~query:[ "emp"; "manager" ] with
    | Ok a ->
      Printf.printf "  query {emp, manager} routed through: %s\n"
        (String.concat ", "
           a.Datamodel.Interface.connection.Datamodel.Query.relations_used);
      Format.printf "  %a@." Relalg.Relation.pp a.Datamodel.Interface.result
    | Error _ -> print_endline "  (query failed)")
  in
  Cmd.v (Cmd.info "demo" ~doc:"Run the Fig. 1 walk-through") Term.(const run $ const ())

(* A reader that goes away (head, a broken pipe, a dead socket) must
   end the run with a typed input-error exit, not a SIGPIPE kill: the
   signal is ignored process-wide so write failures surface as
   EPIPE/Sys_error, and the top-level handler below maps those to exit
   code 4. *)
let broken_pipe_exn = function
  | Unix.Unix_error (Unix.EPIPE, _, _) -> true
  | Sys_error msg ->
    (* Channel writes report strerror text; match the EPIPE phrasing. *)
    let n = String.length msg and p = "Broken pipe" in
    let k = String.length p in
    let rec scan i = i + k <= n && (String.sub msg i k = p || scan (i + 1)) in
    scan 0
  | _ -> false

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (match Sys.getenv_opt "MINCONN_DEBUG" with
  | Some _ ->
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Debug)
  | None -> ());
  let info =
    Cmd.info "minconn" ~version:Minconn.version
      ~doc:
        "Minimal conceptual connections on chordal bipartite graphs \
         (Ausiello-D'Atri-Moscarini, PODS 1985)"
  in
  exit
    (try
       Cmd.eval ~catch:false
         (Cmd.group info
            [
              classify_cmd;
              compile_cmd;
              solve_cmd;
              evolve_cmd;
              relations_cmd;
              repair_cmd;
              interpretations_cmd;
              ask_cmd;
              query_cmd;
              dot_cmd;
              hypergraph_cmd;
              generate_cmd;
              figures_cmd;
              serve_cmd;
              demo_cmd;
            ])
     with e when broken_pipe_exn e ->
       prerr_endline "minconn: error=broken-pipe (output closed)";
       (* stdout's channel still buffers bytes that can never be
          delivered; repoint fd 1 at /dev/null so the at_exit flush
          succeeds instead of re-raising over our exit code. *)
       (try
          let dn = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
          Unix.dup2 dn Unix.stdout;
          Unix.close dn
        with Unix.Unix_error _ -> ());
       exit_input_error)
