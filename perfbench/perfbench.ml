(* In-process half of the end-to-end benchmark; run.py drives it.

     perfbench prepare WORKLOAD SEED DIR [GENERATED]
       Write the workload's input files into DIR, answer every distinct
       request in-process, check every answer independently, and write
       DIR/expect.json, which run.py diffs the program's output against.
       For cli_cold, GENERATED is `minconn generate` output for the same
       seed; the written schema must hash equal to it.
     perfbench serve WORKLOAD SEED
       Host Serve.Server over the workload's generated schema (the CLI
       front end would spend minutes parsing a 10^5-node file). Prints
       port=P once listening and drains on SIGTERM.
     perfbench replay WORKLOAD SEED DIR
       Replay the operations of one run in-process (the requests logged
       in DIR/sent.txt for the serve workloads, one invocation over
       DIR/schema.txt and the query pool for cli_cold), bracketing every
       call into a library layer with wall time and allocation, once
       untraced and once traced. Each operation's client-measured
       latency, also in DIR/sent.txt, minus its in-process time gives the
       residual no layer accounts for. Prints the per-layer figures as
       one JSON object; a layer the workload never calls reports 0.
     perfbench fold TRACE
       Fold a CLI --trace NDJSON file into per-span totals and self time
       (table on stderr, one JSON object on stdout).
     perfbench probe
       Time a fixed reference computation that run.py alternates with
       the measured operations; prints its seconds. *)

open Graphs
open Bipartite
module Parse = Mc_io.Parse
module Compiled = Engine.Compiled
module Session = Engine.Session
module Render = Serve.Render
module Gen_scale = Workloads.Gen_scale
module Trace = Observe.Trace
module Json = Observe.Json

type workload = Cli_cold | Serve_read | Serve_mixed

let workloads =
  [ ("cli_cold", Cli_cold); ("serve_read", Serve_read); ("serve_mixed", Serve_mixed) ]

let workload_of_string w =
  match List.assoc_opt w workloads with
  | Some w -> w
  | None -> failwith ("unknown workload " ^ w)

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* cli_cold: a size where every invocation is dominated by the file front
   end. serve_read: chordal62 at 10^5, where Algorithm 2 does O(n) work
   per query. serve_mixed: alpha at 10^5, where a query is cheap and the
   per-request and delta costs show. *)
let family = function
  | Cli_cold | Serve_read -> Gen_scale.Chordal62
  | Serve_mixed -> Gen_scale.Alpha

let target_n = function Cli_cold -> 10_000 | Serve_read | Serve_mixed -> 100_000
let pool_size = function Cli_cold -> 16 | Serve_read | Serve_mixed -> 256
let terminals_per_query = 3

(* Distinct pendant attachments for the mixed workload's deltas. Each
   `+relation` is followed by the matching `-relation`, so the schema
   returns to its base every two deltas, the removal is never interior
   (no full recompile), and the class and every answer stay fixed. *)
let distinct_deltas = function Serve_mixed -> 8 | Cli_cold | Serve_read -> 0
let pendant = "rpb"

(* Every [delta_every]th request on the second connection is a delta
   (run.py's DELTA_EVERY). *)
let delta_every = 10

(* Replaying every request of a serve run three times would take longer
   than the run. The first [replay_cap] completed requests cover the
   whole solve pool and, on serve_mixed, every delta body at least
   once. *)
let replay_cap w = pool_size w + (2 * distinct_deltas w * delta_every)

let now = Unix.gettimeofday

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let jnum f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"
let jstr s = "\"" ^ Json.escape s ^ "\""

let jobj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (jstr k) v) fields)
  ^ "}"

(* ------------------------------------------------------------ inputs *)

let instance w seed = Gen_scale.make (family w) ~target_n:(target_n w) ~seed

(* The names `minconn generate` gives the same graph. *)
let named graph =
  {
    Parse.graph;
    left_names = Array.init (Bigraph.nl graph) (Printf.sprintf "a%d");
    right_names = Array.init (Bigraph.nr graph) (Printf.sprintf "r%d");
  }

(* In-block terminal sets over uniformly drawn blocks, as request
   bodies. *)
let query_pool w inst rng =
  List.init (pool_size w) (fun _ ->
      let block = Workloads.Rng.int rng (Gen_scale.n_blocks inst) in
      Gen_scale.block_terminals inst ~block ~k:terminals_per_query
      |> Iset.elements
      |> List.map (Printf.sprintf "a%d")
      |> String.concat ",")

(* Alternating add/remove bodies: [plus_0; minus; plus_1; minus; ...]. *)
let delta_bodies w inst rng =
  List.init (distinct_deltas w) (fun _ ->
      let attr = Workloads.Rng.int rng (Gen_scale.nl inst) in
      [
        Printf.sprintf "deltas\n+relation %s a%d\n" pendant attr;
        Printf.sprintf "deltas\n-relation %s\n" pendant;
      ])
  |> List.concat

let inputs w seed =
  let inst = instance w seed in
  let rng = Workloads.Rng.make ~seed in
  let pool = query_pool w inst rng in
  (inst, pool, delta_bodies w inst rng)

let split_names body =
  String.split_on_char ',' body |> List.filter (fun s -> s <> "")

(* Schema file in the CLI's input format. Repeated [left]/[right] lines
   accumulate, so each name list is cut into lines under the parser's
   line cap; the whole file must stay under its input cap. *)
let schema_text inst =
  let nl = Gen_scale.nl inst and nr = Gen_scale.nr inst in
  let b = Buffer.create (32 * (nl + nr + Gen_scale.m inst)) in
  Buffer.add_string b "bipartite\n";
  let names keyword prefix count =
    let line = Buffer.create 1024 in
    let flush () =
      if Buffer.length line > 0 then begin
        Buffer.add_string b keyword;
        Buffer.add_buffer b line;
        Buffer.add_char b '\n';
        Buffer.clear line
      end
    in
    for i = 0 to count - 1 do
      let tok = Printf.sprintf " %s%d" prefix i in
      if
        String.length keyword + Buffer.length line + String.length tok
        > Parse.max_line_bytes
      then flush ();
      Buffer.add_string line tok
    done;
    flush ()
  in
  names "left" "a" nl;
  names "right" "r" nr;
  Gen_scale.iter_edges inst (fun i j -> Printf.bprintf b "edge a%d r%d\n" i j);
  if Buffer.length b > Parse.max_input_bytes then
    failwith "schema file exceeds Parse.max_input_bytes";
  Buffer.contents b

let parse_or_fail text =
  match Parse.bigraph_of_string text with
  | Ok nb -> nb
  | Error e -> failwith (Format.asprintf "%a" Parse.pp_error e)

(* ----------------------------------------------------------- checker *)

(* The session's answer must be an exact, valid tree over the terminals
   with as few nodes as brute force finds on the terminals' component. *)
let check_answer compiled u p (sol : Session.solution) =
  let tree = sol.Session.tree in
  let comp =
    compiled.Compiled.components.(compiled.Compiled.comp_id.(Iset.min_elt p))
  in
  let sub, ids = Ugraph.induced u comp.Compiled.nodes in
  let back = Hashtbl.create (Array.length ids) in
  Array.iteri (fun i v -> Hashtbl.replace back v i) ids;
  sol.Session.optimal
  && Steiner.Tree.verify u ~terminals:p tree
  &&
  match
    Steiner.Brute.steiner sub ~terminals:(Iset.map (Hashtbl.find back) p)
  with
  | Some best -> Steiner.Tree.node_count best = Steiner.Tree.node_count tree
  | None -> false

let answer_block compiled session nb body =
  match Parse.name_set nb (split_names body) with
  | Error n -> Error ("unknown terminal " ^ n)
  | Ok p -> (
    match Session.query session ~p with
    | Error e -> Error (Runtime.Errors.to_string e)
    | Ok sol ->
      if check_answer compiled (Compiled.ugraph compiled) p sol then
        Ok (Render.solution_block nb sol)
      else Error "answer is not a minimum Steiner tree")

let prepare w seed dir generated =
  let inst, pool, deltas = inputs w seed in
  let failures = ref 0 and checked = ref 0 in
  let fail msg =
    incr failures;
    Printf.eprintf "perfbench: check failed: %s\n%!" msg
  in
  let nb =
    match w with
    | Cli_cold ->
      write_file (Filename.concat dir "schema.txt") (schema_text inst);
      write_file
        (Filename.concat dir "queries.txt")
        (String.concat "\n" pool ^ "\n");
      let nb = parse_or_fail (read_file (Filename.concat dir "schema.txt")) in
      let hash = Compiled.schema_hash nb.Parse.graph in
      incr checked;
      (match generated with
      | None -> fail "no `minconn generate` file to compare the schema with"
      | Some path ->
        let g = parse_or_fail (read_file path) in
        if Compiled.schema_hash g.Parse.graph <> hash then
          fail "written schema does not hash equal to `minconn generate`");
      nb
    | Serve_read | Serve_mixed -> named (Gen_scale.to_bigraph inst)
  in
  let compiled = Compiled.compile nb.Parse.graph in
  let answers =
    let session = Session.create compiled in
    List.map
      (fun body ->
        incr checked;
        match answer_block compiled session nb body with
        | Ok block -> block
        | Error msg ->
          fail (body ^ ": " ^ msg);
          "")
      pool
  in
  (* Each delta pair must keep the plan patchable and every answer
     byte-identical, and the removal must restore the base schema. *)
  let base_hash = Compiled.schema_hash nb.Parse.graph in
  let rec check_pairs = function
    | plus :: minus :: rest ->
      incr checked;
      (match Parse.deltas_of_string nb plus with
      | Error e -> fail (Format.asprintf "%s: %a" plus Parse.pp_error e)
      | Ok (ops, nb') -> (
        match Compiled.apply_deltas compiled ops with
        | Error msg -> fail msg
        | Ok (c', stats) ->
          if List.exists (fun s -> s.Compiled.fallback) stats then
            fail (plus ^ ": fell back to a full recompile");
          let session = Session.create c' in
          List.iter2
            (fun body expected ->
              match answer_block c' session nb' body with
              | Ok block when block = expected -> ()
              | Ok _ -> fail (body ^ ": answer changed under " ^ plus)
              | Error msg -> fail (body ^ ": " ^ msg))
            pool answers;
          (match Parse.deltas_of_string nb' minus with
          | Error e -> fail (Format.asprintf "%s: %a" minus Parse.pp_error e)
          | Ok (ops, nb'') -> (
            match Compiled.apply_deltas c' ops with
            | Error msg -> fail msg
            | Ok (_, stats) ->
              if List.exists (fun s -> s.Compiled.fallback) stats then
                fail (minus ^ ": fell back to a full recompile");
              if Compiled.schema_hash nb''.Parse.graph <> base_hash then
                fail (minus ^ ": schema did not return to its base")))));
      check_pairs rest
    | _ -> ()
  in
  check_pairs deltas;
  let json =
    jobj
      [
        ("workload", jstr (workload_name w));
        ("seed", string_of_int seed);
        ("nodes", string_of_int (Bigraph.n nb.Parse.graph));
        ("edges", string_of_int (Bigraph.m nb.Parse.graph));
        ("blocks", string_of_int (Gen_scale.n_blocks inst));
        ("components", string_of_int (Compiled.n_components compiled));
        ("schema_hash", jstr base_hash);
        ("checked", string_of_int !checked);
        ("check_failures", string_of_int !failures);
        ( "solves",
          "["
          ^ String.concat ", "
              (List.map2
                 (fun body block ->
                   jobj [ ("body", jstr body); ("answer", jstr block) ])
                 pool answers)
          ^ "]" );
        ("deltas", "[" ^ String.concat ", " (List.map jstr deltas) ^ "]");
      ]
  in
  write_file (Filename.concat dir "expect.json") (json ^ "\n")

(* ------------------------------------------------------------- serve *)

let serve w seed =
  let nb = named (Gen_scale.to_bigraph (instance w seed)) in
  match Serve.Server.create ~metrics:(Observe.Metrics.make ()) nb with
  | Error msg ->
    prerr_endline ("perfbench: serve: " ^ msg);
    exit 1
  | Ok server ->
    let stop _ = Serve.Server.stop server in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Printf.printf "port=%d\n%!" (Serve.Server.port server);
    Serve.Server.run server

(* ------------------------------------------------------------ replay *)

(* One bracketed call site: wall time and allocated words per call. *)
type site = { mutable secs : float list; mutable words : float list }

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let bracket sites name f =
  let site =
    match Hashtbl.find_opt sites name with
    | Some s -> s
    | None ->
      let s = { secs = []; words = [] } in
      Hashtbl.add sites name s;
      s
  in
  let w0 = allocated_words () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  site.words <- (allocated_words () -. w0) :: site.words;
  site.secs <- dt :: site.secs;
  r

let get_ok what = function
  | Ok v -> v
  | Error _ -> failwith ("replay: " ^ what ^ " failed")


(* What a replay pass learned besides the bracketed calls. *)
type pass = {
  mutable components : int;
  mutable reused : int;  (** delta components reused verbatim *)
  mutable recompiled : int;  (** delta components rebuilt *)
  mutable residual_secs : float list;
      (** client-measured latency minus in-process time, per operation *)
}

(* One CLI invocation, call by call: read and parse the file, derive the
   CSR, compile, then resolve, answer and render every query. *)
let replay_cli sites trace pass dir pool =
  let text =
    bracket sites "mc_io.read" (fun () ->
        read_file (Filename.concat dir "schema.txt"))
  in
  let nb =
    bracket sites "mc_io.parse" (fun () ->
        get_ok "parse" (Parse.bigraph_of_string text))
  in
  ignore
    (bracket sites "bipartite.csr" (fun () -> Bigraph.csr nb.Parse.graph)
      : Csr.t);
  let compiled =
    bracket sites "engine.compile" (fun () ->
        Compiled.compile ~trace nb.Parse.graph)
  in
  pass.components <- Compiled.n_components compiled;
  let session =
    bracket sites "engine.session_create" (fun () ->
        Session.create ~trace compiled)
  in
  List.iter
    (fun body ->
      let p =
        bracket sites "mc_io.name_set" (fun () ->
            get_ok "name_set" (Parse.name_set nb (split_names body)))
      in
      let sol =
        bracket sites "engine.query" (fun () ->
            get_ok "query" (Session.query session ~p))
      in
      ignore
        (bracket sites "serve.render" (fun () -> Render.solution_block nb sol)
          : string))
    pool

(* A serve run's requests in completion order, mirroring the server:
   one session per connection, resynced to the published plan before
   every request; deltas parsed against and applied to the schema of
   record. *)
let replay_serve sites trace pass graph pool deltas sent =
  let pool = Array.of_list pool and deltas = Array.of_list deltas in
  ignore (bracket sites "bipartite.csr" (fun () -> Bigraph.csr graph) : Csr.t);
  let nb = ref (named graph) in
  let compiled =
    ref (bracket sites "engine.compile" (fun () -> Compiled.compile ~trace graph))
  in
  pass.components <- Compiled.n_components !compiled;
  let sessions =
    Array.init 2 (fun _ ->
        bracket sites "engine.session_create" (fun () ->
            Session.create ~trace !compiled))
  in
  List.iter
    (fun (conn, kind, i, client_secs) ->
      let t0 = now () in
      if Session.compiled sessions.(conn) != !compiled then
        sessions.(conn) <-
          bracket sites "engine.with_plan" (fun () ->
              Session.with_plan sessions.(conn) !compiled);
      match kind with
      | `Solve ->
        let p =
          bracket sites "mc_io.name_set" (fun () ->
              get_ok "name_set" (Parse.name_set !nb (split_names pool.(i))))
        in
        let sol =
          bracket sites "engine.query" (fun () ->
              get_ok "query" (Session.query sessions.(conn) ~p))
        in
        ignore
          (bracket sites "serve.render" (fun () -> Render.solution_block !nb sol)
            : string);
        pass.residual_secs <-
          (client_secs -. (now () -. t0)) :: pass.residual_secs
      | `Delta ->
        let ops, nb' =
          bracket sites "mc_io.deltas_parse" (fun () ->
              get_ok "deltas" (Parse.deltas_of_string !nb deltas.(i)))
        in
        let c, stats =
          bracket sites "engine.apply_delta" (fun () ->
              get_ok "apply_deltas" (Compiled.apply_deltas ~trace !compiled ops))
        in
        nb := nb';
        compiled := c;
        List.iter
          (fun (s : Compiled.delta_stats) ->
            pass.reused <- pass.reused + s.Compiled.reused;
            pass.recompiled <- pass.recompiled + List.length s.Compiled.recompiled)
          stats
      | `Cli -> ())
    sent

(* DIR/sent.txt: one "CONN KIND INDEX SECONDS" line per completed
   operation in completion order, with its client-measured latency; KIND
   is S (solve) or D (delta) on the serve workloads and C (one CLI
   invocation) on cli_cold. *)
let read_sent w dir =
  read_file (Filename.concat dir "sent.txt")
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.filteri (fun i _ -> i < replay_cap w)
  |> List.map (fun line ->
         match String.split_on_char ' ' line with
         | [ c; k; i; secs ] ->
           let kind =
             match k with
             | "S" -> `Solve
             | "D" -> `Delta
             | "C" -> `Cli
             | _ -> failwith ("bad sent.txt line: " ^ line)
           in
           (int_of_string c, kind, int_of_string i, float_of_string secs)
         | _ -> failwith ("bad sent.txt line: " ^ line))

let run_pass w seed dir ~trace =
  let inst, pool, deltas = inputs w seed in
  let sent = read_sent w dir in
  (* The serve workloads' schema comes from the generator, not from a
     user path, so its construction stays outside the replay. *)
  let graph =
    match w with
    | Cli_cold -> None
    | Serve_read | Serve_mixed -> Some (Gen_scale.to_bigraph inst)
  in
  Gc.compact ();
  let sites = Hashtbl.create 16 in
  let pass =
    { components = 0; reused = 0; recompiled = 0; residual_secs = [] }
  in
  let t0 = now () in
  (match graph with
  | None -> replay_cli sites trace pass dir pool
  | Some graph -> replay_serve sites trace pass graph pool deltas sent);
  let wall = now () -. t0 in
  (* A CLI invocation is replayed whole, so its residual is the
     invocation's wall time minus the replay's. *)
  if w = Cli_cold then
    pass.residual_secs <-
      List.map (fun (_, _, _, secs) -> secs -. wall) sent;
  (sites, pass, wall)

let replay w seed dir =
  (* The process's first pass grows its heap from nothing; a warm-up pass
     keeps that cost out of the untraced-vs-traced comparison. *)
  ignore (run_pass w seed dir ~trace:Trace.disabled);
  let sites, pass, wall = run_pass w seed dir ~trace:Trace.disabled in
  let trace = Trace.make () in
  let traced_sites, _, traced_wall = run_pass w seed dir ~trace in
  let spans = Fold.of_trace trace in
  let rows = Fold.fold spans in
  Fold.print stderr rows;
  let site name = Hashtbl.find_opt sites name in
  let med_secs name =
    match site name with Some s -> median s.secs | None -> 0.
  in
  let med_words name =
    match site name with Some s -> median s.words | None -> 0.
  in
  (* Seconds spent in the bracketed calls whose site starts with [prefix]. *)
  let secs_in ?(prefix = "") sites =
    Hashtbl.fold
      (fun name s acc ->
        if String.starts_with ~prefix name then List.fold_left ( +. ) acc s.secs
        else acc)
      sites 0.
  in
  (* Only the engine calls take the trace; comparing just them keeps the
     parse, which dominates cli_cold and never traces, out of the overhead. *)
  let engine = secs_in ~prefix:"engine." sites in
  let engine_traced = secs_in ~prefix:"engine." traced_sites in
  let span_ms name = Fold.total_us rows name /. 1e3 in
  let rungs = Fold.with_prefix rows "rung:" in
  let rung_calls = List.fold_left (fun a (r : Fold.row) -> a + r.count) 0 rungs in
  let rung_ran = List.fold_left (fun a (r : Fold.row) -> a + r.ran) 0 rungs in
  let rung_us =
    List.fold_left (fun a (r : Fold.row) -> a +. r.total_us) 0. rungs
  in
  let queries =
    match site "engine.query" with Some s -> List.length s.secs | None -> 0
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let fields =
    [
      ("mc_io.parse_ms", 1e3 *. med_secs "mc_io.parse");
      ("mc_io.parse_alloc_mw", med_words "mc_io.parse" /. 1e6);
      ("mc_io.name_set_us", 1e6 *. med_secs "mc_io.name_set");
      ("mc_io.deltas_parse_ms", 1e3 *. med_secs "mc_io.deltas_parse");
      ("bipartite.csr_ms", 1e3 *. med_secs "bipartite.csr");
      ("bipartite.classify_ms", span_ms "classify");
      ( "bipartite.classify_redundant_ms",
        List.fold_left
          (fun a n -> a +. span_ms n)
          0.
          [
            "classify.h1.berge";
            "classify.h2.berge";
            "classify.h2.gamma";
            "classify.h2.beta";
          ] );
      ("engine.compile_ms", 1e3 *. med_secs "engine.compile");
      ("engine.compile_alloc_mw", med_words "engine.compile" /. 1e6);
      ("engine.components", float_of_int pass.components);
      ("engine.query_ms", 1e3 *. med_secs "engine.query");
      ("engine.query_alloc_kw", med_words "engine.query" /. 1e3);
      ("engine.with_plan_ms", 1e3 *. med_secs "engine.with_plan");
      ("engine.apply_delta_ms", 1e3 *. med_secs "engine.apply_delta");
      ("engine.apply_delta_alloc_mw", med_words "engine.apply_delta" /. 1e6);
      ( "engine.delta_reused_frac",
        ratio (float_of_int pass.reused)
          (float_of_int (pass.reused + pass.recompiled)) );
      ("steiner.rung_ms", ratio (rung_us /. 1e3) (float_of_int queries));
      ( "steiner.rung_useful_ratio",
        ratio (float_of_int rung_ran) (float_of_int rung_calls) );
      ("serve.render_us", 1e6 *. med_secs "serve.render");
      ("observe.residual_ms", 1e3 *. median pass.residual_secs);
      ("observe.span_coverage", ratio (Fold.root_us spans /. 1e6) traced_wall);
      ("observe.trace_overhead_frac", ratio (engine_traced -. engine) engine);
      ("observe.replay_coverage", ratio (secs_in sites) wall);
    ]
  in
  print_endline (jobj (List.map (fun (k, v) -> (k, jnum v)) fields))

(* ------------------------------------------------------------- probe *)

(* A fixed computation on the OCaml standard library alone: name
   formatting, string hashing, table lookups and a sort over a few MB,
   the mix of the program's front end and engine. run.py alternates it
   with the measured operations and reports their times in units of it,
   so that the shared host's slow phases, which stretch both alike,
   cancel. It calls nothing in lib/, so no change to the program moves
   it. Prints its own time in seconds. *)
let probe () =
  let n = 1 lsl 15 in
  let t0 = now () in
  let names = Hashtbl.create 1024 in
  for i = 0 to n - 1 do
    Hashtbl.replace names (Printf.sprintf "a%d" (i * 7919 land (n - 1))) i
  done;
  let keys = Array.init (4 * n) (fun i -> Hashtbl.hash (i * 2654435761)) in
  Array.sort compare keys;
  let sum = ref keys.(0) in
  for i = 0 to n - 1 do
    sum := !sum + Hashtbl.find names (Printf.sprintf "a%d" i)
  done;
  Printf.printf "%s %d\n" (jnum (now () -. t0)) !sum

(* -------------------------------------------------------------- fold *)

let fold_file path =
  let spans = Fold.of_ndjson (read_file path) in
  Fold.print stderr (Fold.fold spans);
  print_endline
    (jobj
       [
         ("spans", string_of_int (List.length spans));
         ("root_ms", jnum (Fold.root_us spans /. 1e3));
       ])

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "prepare"; w; seed; dir ] ->
    prepare (workload_of_string w) (int_of_string seed) dir None
  | [ "prepare"; w; seed; dir; generated ] ->
    prepare (workload_of_string w) (int_of_string seed) dir (Some generated)
  | [ "serve"; w; seed ] -> serve (workload_of_string w) (int_of_string seed)
  | [ "replay"; w; seed; dir ] ->
    replay (workload_of_string w) (int_of_string seed) dir
  | [ "fold"; path ] -> fold_file path
  | [ "probe" ] -> probe ()
  | _ ->
    prerr_endline
      "usage: perfbench (prepare W SEED DIR [GENERATED] | serve W SEED | \
       replay W SEED DIR | fold TRACE | probe)";
    exit 2
