(* scale-smoke: the million-node construction path at tier-1-affordable
   size — stream one n = 10^5 chordal62 instance direct to CSR, compile
   it, and answer a query burst through a session, all under a hard
   wall-clock budget. Catches accidental superlinear regressions in the
   construction or compile path (the full ladder to 10^6 lives in
   `bench scale`, which is not run on every test invocation).

   It also bounds what a warm query allocates, on the chordal62
   instance and on forest and alpha instances of the same size: a
   query runs on the terminals' component alone, so its allocation
   must not grow with the schema. Each query of a second burst over
   the same session is measured with [Gc.allocated_bytes].

   It bounds what compiling the chordal62 instance allocates per
   (n + m), measured with [Gc.allocated_bytes] from an empty minor
   heap: the classifier runs on each component only the recognizers
   Theorem 1 and Corollary 2 leave open, and a compile that runs every
   recognizer on every block allocates about twice as much.

   It classifies one connected schema, the γ-acyclic
   [Gen_bipartite.chordal_62] family that `minconn generate --class 62
   --size 3000` writes (n ≈ 9,000), under a one-second budget: the
   classifier's γ and β kernels are elimination passes over the
   component's CSR, and a cubic scan over its hyperedges would take
   hours there.

   It compiles that schema and the connected
   [Gen_bipartite.alpha_bipartite] schema of the same size, each under
   the same one-second budget. Compiling classifies the component, and
   the timed window also asks α of the component's H¹ through the
   linear maximum cardinality search kernel on its slice, as Step 1 of
   Algorithm 1 does for each relations query; the alpha schema is off
   (6,1), so its classification also asks α of H² and tests H²'s
   2-section. With GYO deciding α and building the join
   tree, the chordal62 compile took about 0.9 s and the alpha one
   about 1.5 s.

   It classifies the dense [Gen_bipartite.gnp ~nl:400 ~nr:400 ~p:0.3]
   schema that `minconn generate --class gnp --size 400 --seed 1`
   writes under the one-second budget. That schema is off (6,1)
   and neither side is α, so the classifier decides the chordality of
   both sides' 2-sections, which are near-complete graphs of 400
   nodes cut from hyperedges of about 120 nodes each: built once from
   the schema's CSR with each distinct pair emitted once, and decided
   by maximum cardinality search, it takes about 0.1 s (0.19 s when
   each long 2-section row was copied out and sorted through a
   comparison closure rather than heap-sorted in place); building a
   [Ugraph] 2-section per side from the hypergraph and running the
   quadratic LexBFS kernel on it took 1.6–1.75 s.

   It classifies the 25×25 grid schema (an attribute per cell, a
   binary relation per grid edge; n = 1,825) under the one-second
   budget. Neither side is α or chordal, so both sides reach Gilmore's
   conformality test, and both are conformal: the hyperedges'
   intersection graph has no triangle on either side. Gilmore's test
   enumerates only those triangles, on the component's CSR, and takes
   a few milliseconds; the cubic loop over dense bitsets of every
   hyperedge triple took about 224 s.

   It answers a warm 4-terminal query on the connected chordal62 schema
   that `minconn generate --class 62 --size 3400 --seed 1` writes
   (n = 10,249) under 5 ms, and bounds what it allocates: Algorithm 2
   eliminates inside the seed cover of the terminals, not over the
   whole component, which took about 8 s there.

   It answers one 3-terminal query on the connected alpha schema
   (n ≈ 9,000) under a one-second budget, and bounds what it allocates
   by a multiple of (2^t)·(n + m) words. An alpha schema is off (6,2),
   so the query goes to the exact Dreyfus–Wagner rung, whose cost is
   exponential in the terminal count t only: a BFS from each terminal,
   flat 2^t-row tables over the slice's nodes and a relax pass over its
   CSR per terminal subset. A DP that keeps distances from every node
   is quadratic in n — the set-view DP took 72 s and 1.2 GB of memory
   on a schema of this size.

   It resolves 10^4 three-name terminal sets against a name index over
   the chordal62 instance's 10^5 names under 50 ms: resolution through
   [Mc_io.Parse.index] is O(|p|), where the one-shot scan
   ([Mc_io.Parse.name_set]) costs about half a millisecond per set
   there, about 5 s in all.

   It bounds what [Csr.of_edge_iter] allocates building the chordal62
   instance's adjacency from its edge stream, buffered first so the
   window holds the build alone: the [row] and [col] it returns and
   one n-word cursor. Compacting the deduplicated rows into a second
   row array costs n words more, and fails the bound.

   It bounds what the file front end allocates per input byte: the
   chordal62 instance written as [minconn generate] writes it, then
   read back by [Mc_io.Parse.bigraph_of_string]. A token is an offset
   into the text and a name is copied once, so the parse allocates
   little beyond the names and the CSR arrays; a tokenizer that copies
   every token into per-line lists allocates several times more.

   Last, it bounds what a schema delta allocates: a pendant relation
   added to the alpha plan and removed again. Each delta splices the
   schema's CSR once and relabels the plan's components, so its
   allocation is linear in n + m with a small constant; a round trip
   through the whole-graph set view costs several times more. The
   same pair is then served whole, as [POST /schema/delta] runs it
   (parsed against the named schema, the plan patched around the
   parser's graph), where applying each op twice fails the bound. *)

let budget_s = 60.0

(* Far above what a query on one bounded-size block needs, far below
   one word per schema node at n = 10^5. *)
let max_query_words = 10_000

(* A chordal62 query runs Algorithm 2 inside its seed cover on its
   block's CSR and derives no set view: measured at 270 words (344
   when it eliminated over the whole block), where deriving the
   block's set view for the tree extraction allocated 887. *)
let max_chordal62_query_words = 600

let max_resolve_s = 0.05

(* Measured at 0.51 words per input byte: the names, one int per edge
   and the CSR arrays (0.55 while the CSR build compacted its rows into
   a second row array). The list tokenizer it replaced allocated 5.20
   on the same text. *)
let max_parse_words_per_byte = 2.0

(* The named schema of [inst] as text, and words allocated per byte
   by parsing it back; failing unless it reads back as the instance. *)
let parse_words_per_byte inst =
  let graph = Workloads.Gen_scale.to_bigraph inst in
  let text =
    Mc_io.Parse.bigraph_to_string
      {
        Mc_io.Parse.graph;
        left_names =
          Array.init (Minconn.Bigraph.nl graph) (Printf.sprintf "a%d");
        right_names =
          Array.init (Minconn.Bigraph.nr graph) (Printf.sprintf "r%d");
      }
  in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  match Mc_io.Parse.bigraph_of_string text with
  | Ok nb when Minconn.Bigraph.equal nb.Mc_io.Parse.graph graph ->
    (Gc.allocated_bytes () -. before)
    /. float_of_int (Sys.word_size / 8)
    /. float_of_int (String.length text)
  | _ ->
    prerr_endline "scale_check: the chordal62 text does not read back";
    exit 1

(* [Csr.of_edge_iter] allocates its [row] and [col] results and one
   [cursor] array of n words, and compacts the deduplicated rows in
   place over [row]: measured at 2.00 words per (n + m) on the
   chordal62 stream (n = 100,000, m = 114,376), where a separate
   [out_row] of n + 1 words for the compacted rows made it 2.47. *)
let max_csr_build_words_per_size = 2.25

(* Words per (n + m) that [Csr.of_edge_iter] allocates building the
   instance's adjacency from its edge stream. The stream is buffered in
   a [Csr.Builder] first, so the window holds the build alone: its
   replay of the buffer allocates nothing per edge. *)
let csr_build_words_per_size inst =
  let nl = Workloads.Gen_scale.nl inst in
  let b =
    Graphs.Csr.Builder.create ~hint:(Workloads.Gen_scale.m inst)
      (Workloads.Gen_scale.n inst)
  in
  Workloads.Gen_scale.iter_edges inst (fun i j ->
      Graphs.Csr.Builder.add_edge b i (nl + j));
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let csr = Graphs.Csr.Builder.build b in
  (Gc.allocated_bytes () -. before)
  /. float_of_int (Sys.word_size / 8)
  /. float_of_int (Graphs.Csr.n csr + Graphs.Csr.m csr)

(* Measured at 2.1 words per (n + m) for each delta of the pair (one
   CSR splice plus the plan's per-node [comp_id]); 3.8 when each edit
   rebuilt the CSR through [Csr.of_edge_iter]; a round trip through
   the whole-graph set view allocates about 40. *)
let max_delta_words_per_size = 8.0

(* One whole served delta ([served_delta_words_per_size]) measured at
   2.6 words per (n + m) for each half of the pair: one CSR splice by
   the parser, the plan's [comp_id], the evolved right-name array and
   its table. It measured 5.2 when the parser and the engine each
   applied the op with a full CSR rebuild and the right-name table was
   rehashed after a [+relation]; two rebuilds fail this bound. *)
let max_served_delta_words_per_size = 4.0

(* Compile measures 12 words per (n + m) on the chordal62 instance: it
   labels the components and builds their node sets, and classifies
   none. Classifying every block afterwards ([Compiled.profile], each
   block cut by [Bigraph.induced] and decided by γ-elimination on its
   CSR) is held to the same bound. While compile classified each block
   on its cut from the flat component layout the two together measured
   30 (37 when blocks were cut through Iset lists, 49 while compile
   also ran the α kernel); building each block's hypergraph and
   scanning it for β and γ allocated 591, and building it for GYO's
   join tree 75. *)
let max_compile_words_per_size = 150.0

let max_connected_classify_s = 1.0

(* Seconds to classify one connected chordal62 schema of [n_right]
   relations, failing unless the schema is connected and (6,2). *)
let connected_classify_s ~n_right =
  let g =
    Workloads.Gen_bipartite.chordal_62 (Workloads.Rng.make ~seed:0) ~n_right
      ~max_size:4
  in
  if not (Minconn.Bigraph.is_connected g) then begin
    prerr_endline "scale_check: the chordal62 schema is not connected";
    exit 1
  end;
  let t0 = Unix.gettimeofday () in
  let p = Minconn.Classify.profile g in
  let dt = Unix.gettimeofday () -. t0 in
  if not p.Minconn.Classify.chordal_62 then begin
    prerr_endline "scale_check: the chordal62 schema is not (6,2)";
    exit 1
  end;
  (Minconn.Bigraph.n g, dt)

(* Seconds to classify the dense gnp schema, failing unless it has the
   profile that sends both sides to the 2-section check: off (6,1),
   neither side α, both sides chordal. *)
let gnp_classify_s () =
  let g =
    Workloads.Gen_bipartite.gnp (Workloads.Rng.make ~seed:1) ~nl:400 ~nr:400
      ~p:0.3
  in
  let t0 = Unix.gettimeofday () in
  let p = Minconn.Classify.profile g in
  let dt = Unix.gettimeofday () -. t0 in
  let open Minconn.Classify in
  if
    p.chordal_61 || p.alpha_h1 || p.alpha_h2
    || not (p.v2_chordal && p.v1_chordal)
  then begin
    prerr_endline "scale_check: the gnp schema has an unexpected profile";
    exit 1
  end;
  (Minconn.Bigraph.n g, dt)

(* Seconds to classify the [k]×[k] grid schema, failing unless it
   has the profile that sends both sides to Gilmore's test: off (6,1),
   neither side α or chordal, both sides conformal. *)
let grid_classify_s ~k =
  let cell i j = (i * k) + j in
  let edges = ref [] and nr = ref 0 in
  let relation a b =
    edges := (a, !nr) :: (b, !nr) :: !edges;
    incr nr
  in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      if j + 1 < k then relation (cell i j) (cell i (j + 1));
      if i + 1 < k then relation (cell i j) (cell (i + 1) j)
    done
  done;
  let g = Minconn.Bigraph.of_edges ~nl:(k * k) ~nr:!nr !edges in
  let t0 = Unix.gettimeofday () in
  let p = Minconn.Classify.profile g in
  let dt = Unix.gettimeofday () -. t0 in
  let open Minconn.Classify in
  if
    p.chordal_61 || p.alpha_h1 || p.alpha_h2 || p.v2_chordal || p.v1_chordal
    || not (p.v2_conformal && p.v1_conformal)
  then begin
    prerr_endline "scale_check: the grid schema has an unexpected profile";
    exit 1
  end;
  (Minconn.Bigraph.n g, dt)

(* Compile and classification together, as compile did them while it
   classified every component: measured at about 5 ms for the chordal62
   schema and 15 ms for the alpha one at n_right = 3,000; the alpha
   compile took about 75 ms while H²'s 2-section was a [Ugraph] decided
   by LexBFS. *)
let max_connected_compile_s = 1.0

(* Whether every component's H¹ is α-acyclic, asked of the maximum
   cardinality search kernel on the component's slice. The plan's
   profile is not read: on a (6,1) component it comes from
   β-elimination, and the kernel would go unexercised. *)
let components_alpha plan =
  let g = Minconn.Compiled.graph plan in
  Array.for_all
    (fun c ->
      let slice, _ = Minconn.Bigraph.induced g c.Minconn.Compiled.nodes in
      Option.is_some
        (Hypergraphs.Mcs.incidence (Minconn.Bigraph.csr slice)
           ~boundary:(Minconn.Bigraph.nl slice)))
    plan.Minconn.Compiled.components

(* Seconds to compile and classify ([Compiled.profile]) the connected
   [family] schema of [n_right] relations and ask α of every component,
   failing unless the schema is connected and every component is
   α-acyclic. *)
let connected_compile_s family ~n_right =
  let g =
    match family with
    | `Chordal62 ->
      Workloads.Gen_bipartite.chordal_62 (Workloads.Rng.make ~seed:0) ~n_right
        ~max_size:4
    | `Alpha ->
      Workloads.Gen_bipartite.alpha_bipartite (Workloads.Rng.make ~seed:0)
        ~n_right ~max_size:4
  in
  if not (Minconn.Bigraph.is_connected g) then begin
    prerr_endline "scale_check: a compiled schema is not connected";
    exit 1
  end;
  let t0 = Unix.gettimeofday () in
  let plan = Minconn.Compiled.compile g in
  ignore (Minconn.Compiled.profile plan : Minconn.Classify.profile);
  let alpha = components_alpha plan in
  let dt = Unix.gettimeofday () -. t0 in
  if not alpha then begin
    prerr_endline "scale_check: a compiled schema is not alpha-acyclic";
    exit 1
  end;
  (Minconn.Bigraph.n g, dt)

(* A warm 4-terminal query on the connected schema that `minconn
   generate --class 62 --size 3400 --seed 1` writes (n = 10,249)
   measures about 1 ms and 45,000 words: Algorithm 2 eliminates inside
   the seed cover, the BFS parent paths between the terminals (135
   nodes), and the seed's parent and queue arrays (2n words) are the
   only allocations sized to the schema; the plan has one component,
   so the query runs on the graph itself, with no id array (55,000
   words while it cut the schema as a slice of itself). Eliminating
   over the whole component took about 8 s there. *)
let max_connected_query_s = 0.005

let max_connected_query_words = 80_000

(* The best of three warm runs, in seconds, and the words allocated by
   one, of a 4-terminal session query on the connected chordal62 schema
   of [n_right] relations (compile and a first query not timed),
   failing unless Algorithm 2 answered it exactly. *)
let connected_query ~n_right =
  let g =
    Workloads.Gen_bipartite.chordal_62 (Workloads.Rng.make ~seed:1) ~n_right
      ~max_size:4
  in
  if not (Minconn.Bigraph.is_connected g) then begin
    prerr_endline "scale_check: the chordal62 schema is not connected";
    exit 1
  end;
  let session = Minconn.Session.create (Minconn.Compiled.compile g) in
  let p =
    Workloads.Gen_bipartite.random_terminals (Workloads.Rng.make ~seed:1) g ~k:4
  in
  let run () =
    match Minconn.Session.query session ~p with
    | Ok s when s.Minconn.Session.method_used = Minconn.Session.Used_algorithm2
      ->
      ()
    | _ ->
      prerr_endline "scale_check: the connected chordal62 query is not exact";
      exit 1
  in
  run ();
  let word = float_of_int (Sys.word_size / 8) in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  run ();
  let words = int_of_float ((Gc.allocated_bytes () -. before) /. word) in
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    run ();
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  (Minconn.Bigraph.n g, !best, words)

(* One 3-terminal query on the connected alpha schema measures about
   10 ms and 1.7 words per (2^t)·(n + m): the exact DP's flat tables
   hold 2^t cells per node, its distances one row per terminal and its
   radix heap n + 2m entries. The set-view DP it replaced kept a BFS
   row from every node — n² words, about 500 per (2^t)·(n + m)
   here. *)
let max_alpha_query_s = 1.0

let max_alpha_query_words_per_cell = 16.0

(* Seconds and words per (2^t)·(n + m) for one 3-terminal session query
   on the connected alpha schema of [n_right] relations (compile and
   the schema's classification, which a first query would otherwise
   run, not timed), failing unless the exact DP answered it. *)
let connected_alpha_query ~n_right =
  let g =
    Workloads.Gen_bipartite.alpha_bipartite (Workloads.Rng.make ~seed:0)
      ~n_right ~max_size:4
  in
  let plan = Minconn.Compiled.compile g in
  ignore (Minconn.Compiled.profile plan : Minconn.Classify.profile);
  let session = Minconn.Session.create plan in
  let p =
    Workloads.Gen_bipartite.random_terminals (Workloads.Rng.make ~seed:1) g ~k:3
  in
  let cells =
    float_of_int
      ((1 lsl Minconn.Iset.cardinal p)
      * (Minconn.Bigraph.n g + Minconn.Bigraph.m g))
  in
  let word = float_of_int (Sys.word_size / 8) in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  (match Minconn.Session.query session ~p with
  | Ok s when s.Minconn.Session.method_used = Minconn.Session.Used_exact_dp ->
    ()
  | _ ->
    prerr_endline "scale_check: the connected alpha query missed the exact DP";
    exit 1);
  let dt = Unix.gettimeofday () -. t0 in
  ( Minconn.Bigraph.n g,
    dt,
    (Gc.allocated_bytes () -. before) /. word /. cells )

let queries inst =
  let blocks = Workloads.Gen_scale.n_blocks inst in
  List.init 8 (fun i ->
      Workloads.Gen_scale.block_terminals inst ~block:(i * (blocks - 1) / 7)
        ~k:3)

let answer session i p =
  match Minconn.Session.query session ~p with
  | Ok _ -> ()
  | Error e ->
    Printf.eprintf "scale_check: query %d failed: %s\n" i
      (Format.asprintf "%a" Minconn.Errors.pp e);
    exit 1

(* The largest allocation, in words, of one warm query. Each window
   opens on an empty minor heap: the runtime's counters can misreport
   a window that a minor collection cuts in two. *)
let worst_warm_words session ps =
  let word = float_of_int (Sys.word_size / 8) in
  List.fold_left
    (fun worst p ->
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      answer session 0 p;
      max worst
        (int_of_float ((Gc.allocated_bytes () -. before) /. word)))
    0 ps

(* Seconds to resolve 10^4 terminal sets of three names, drawn from the
   blocks of [inst], against a fresh index over its names; failing on
   a set that does not resolve to the block's terminals. *)
let resolve_s inst =
  let graph = Workloads.Gen_scale.to_bigraph inst in
  let nl = Minconn.Bigraph.nl graph in
  let nb =
    {
      Mc_io.Parse.graph;
      left_names = Array.init nl (Printf.sprintf "a%d");
      right_names =
        Array.init (Minconn.Bigraph.nr graph) (Printf.sprintf "r%d");
    }
  in
  let name v = if v < nl then nb.left_names.(v) else nb.right_names.(v - nl) in
  let blocks = Workloads.Gen_scale.n_blocks inst in
  let sets =
    Array.init 64 (fun i ->
        let p =
          Workloads.Gen_scale.block_terminals inst
            ~block:(i * (blocks - 1) / 63)
            ~k:3
        in
        (p, List.map name (Minconn.Iset.elements p)))
  in
  let ix = Mc_io.Parse.index nb in
  let t0 = Unix.gettimeofday () in
  for i = 0 to 9_999 do
    let p, names = sets.(i land 63) in
    match Mc_io.Parse.resolve ix names with
    | Ok q when Minconn.Iset.equal p q -> ()
    | _ ->
      prerr_endline "scale_check: a terminal set resolved wrong";
      exit 1
  done;
  Unix.gettimeofday () -. t0

(* Words allocated per (n + m) by each delta of a pendant
   [+relation a0] / [-relation] pair on [plan]. *)
let delta_words_per_size plan =
  let g = Minconn.Compiled.graph plan in
  let size = float_of_int (Minconn.Bigraph.n g + Minconn.Bigraph.m g) in
  let word = float_of_int (Sys.word_size / 8) in
  let apply plan op =
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    match Minconn.Compiled.apply_delta plan op with
    | Ok (plan', _) ->
      (plan', (Gc.allocated_bytes () -. before) /. word /. size)
    | Error msg ->
      Printf.eprintf "scale_check: delta %s failed: %s\n"
        (Minconn.Delta.to_string op) msg;
      exit 1
  in
  let plan', added =
    apply plan (Minconn.Delta.Add_relation (Minconn.Iset.singleton 0))
  in
  let _, removed =
    apply plan'
      (Minconn.Delta.Remove_relation (Minconn.Bigraph.nr g))
  in
  [ ("+relation", added); ("-relation", removed) ]

(* Words allocated per (n + m) by each half of a pendant
   [+relation] / [-relation] pair on [plan], served as
   [POST /schema/delta] serves it: the delta text parsed against the
   named schema and its name index (which applies the op once and
   reindexes the names), then the plan patched around the parser's
   graph. *)
let served_delta_words_per_size plan =
  let g = Minconn.Compiled.graph plan in
  let nb =
    {
      Mc_io.Parse.graph = g;
      left_names = Array.init (Minconn.Bigraph.nl g) (Printf.sprintf "a%d");
      right_names = Array.init (Minconn.Bigraph.nr g) (Printf.sprintf "r%d");
    }
  in
  let size = float_of_int (Minconn.Bigraph.n g + Minconn.Bigraph.m g) in
  let word = float_of_int (Sys.word_size / 8) in
  let serve (nb, names, plan) body =
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    match Mc_io.Parse.delta_steps_of_string ~names nb body with
    | Ok (steps, nb', names') ->
      let plan', _ = Minconn.Compiled.patch_all plan steps in
      ((nb', names', plan'), (Gc.allocated_bytes () -. before) /. word /. size)
    | Error e ->
      Format.eprintf "scale_check: served delta failed: %a\n"
        Mc_io.Parse.pp_error e;
      exit 1
  in
  let state, added =
    serve (nb, Mc_io.Parse.index nb, plan) "deltas\n+relation pendant a0\n"
  in
  let _, removed = serve state "deltas\n-relation pendant\n" in
  [ ("+relation", added); ("-relation", removed) ]

let () =
  let out = Sys.argv.(1) in
  let t0 = Unix.gettimeofday () in
  let inst =
    Workloads.Gen_scale.make Workloads.Gen_scale.Chordal62 ~target_n:100_000
      ~seed:1
  in
  let g = Workloads.Gen_scale.to_bigraph inst in
  let t_construct = Unix.gettimeofday () -. t0 in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let plan = Minconn.Compiled.compile g in
  let compile_words =
    (Gc.allocated_bytes () -. before)
    /. float_of_int (Sys.word_size / 8)
    /. float_of_int (Minconn.Bigraph.n g + Minconn.Bigraph.m g)
  in
  let t_compile = Unix.gettimeofday () -. t0 -. t_construct in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  ignore (Minconn.Compiled.profile plan : Minconn.Classify.profile);
  let classify_words =
    (Gc.allocated_bytes () -. before)
    /. float_of_int (Sys.word_size / 8)
    /. float_of_int (Minconn.Bigraph.n g + Minconn.Bigraph.m g)
  in
  let session = Minconn.Session.create plan in
  let ps = queries inst in
  List.iteri (answer session) ps;
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > budget_s then begin
    Printf.eprintf "scale_check: %.1fs exceeds the %.0fs budget\n" elapsed
      budget_s;
    exit 1
  end;
  if compile_words > max_compile_words_per_size then begin
    Printf.eprintf
      "scale_check: chordal62 compile allocated %.0f words per (n + m) \
       (bound %.0f)\n"
      compile_words max_compile_words_per_size;
    exit 1
  end;
  if classify_words > max_compile_words_per_size then begin
    Printf.eprintf
      "scale_check: classifying the chordal62 plan allocated %.0f words per        (n + m) (bound %.0f)\n"
      classify_words max_compile_words_per_size;
    exit 1
  end;
  let chordal62_words = worst_warm_words session ps in
  let plans =
    List.map
      (fun fam ->
        let inst = Workloads.Gen_scale.make fam ~target_n:100_000 ~seed:1 in
        let plan =
          Minconn.Compiled.compile (Workloads.Gen_scale.to_bigraph inst)
        in
        let session = Minconn.Session.create plan in
        let ps = queries inst in
        List.iteri (answer session) ps;
        ( Workloads.Gen_scale.family_name fam,
          (plan, worst_warm_words session ps) ))
      [ Workloads.Gen_scale.Forest; Workloads.Gen_scale.Alpha ]
  in
  let others = List.map (fun (fam, (_, w)) -> (fam, w)) plans in
  let words = ("chordal62", chordal62_words) :: others in
  let bound fam =
    if fam = "chordal62" then max_chordal62_query_words else max_query_words
  in
  List.iter
    (fun (fam, w) ->
      if w > bound fam then begin
        Printf.eprintf
          "scale_check: a warm %s query allocated %d words (bound %d)\n" fam w
          (bound fam);
        exit 1
      end)
    words;
  let connected_n, connected_s = connected_classify_s ~n_right:3000 in
  if connected_s > max_connected_classify_s then begin
    Printf.eprintf
      "scale_check: classifying a connected %d-node chordal62 schema took \
       %.2fs (bound %.0fs)\n"
      connected_n connected_s max_connected_classify_s;
    exit 1
  end;
  let gnp_n, gnp_s = gnp_classify_s () in
  if gnp_s > max_connected_classify_s then begin
    Printf.eprintf
      "scale_check: classifying the %d-node gnp schema took %.2fs (bound \
       %.0fs)\n"
      gnp_n gnp_s max_connected_classify_s;
    exit 1
  end;
  let grid_n, grid_s = grid_classify_s ~k:25 in
  if grid_s > max_connected_classify_s then begin
    Printf.eprintf
      "scale_check: classifying the %d-node grid schema took %.2fs (bound \
       %.0fs)\n"
      grid_n grid_s max_connected_classify_s;
    exit 1
  end;
  let compiles =
    List.map
      (fun (name, family) ->
        let n, s = connected_compile_s family ~n_right:3000 in
        if s > max_connected_compile_s then begin
          Printf.eprintf
            "scale_check: compiling a connected %d-node %s schema took %.2fs \
             (bound %.0fs)\n"
            n name s max_connected_compile_s;
          exit 1
        end;
        (name, n, s))
      [ ("chordal62", `Chordal62); ("alpha", `Alpha) ]
  in
  let query_n, query_s, query_words = connected_query ~n_right:3400 in
  if query_s > max_connected_query_s || query_words > max_connected_query_words
  then begin
    Printf.eprintf
      "scale_check: a warm 4-terminal query on a connected %d-node \
       chordal62 schema took %.4fs (bound %.3fs) and allocated %d words \
       (bound %d)\n"
      query_n query_s max_connected_query_s query_words
      max_connected_query_words;
    exit 1
  end;
  let alpha_n, alpha_s, alpha_words = connected_alpha_query ~n_right:3000 in
  if alpha_s > max_alpha_query_s || alpha_words > max_alpha_query_words_per_cell
  then begin
    Printf.eprintf
      "scale_check: a 3-terminal query on a connected %d-node alpha schema \
       took %.2fs (bound %.0fs) and allocated %.1f words per (2^t)(n + m) \
       (bound %.0f)\n"
      alpha_n alpha_s max_alpha_query_s alpha_words
      max_alpha_query_words_per_cell;
    exit 1
  end;
  let deltas = delta_words_per_size (fst (List.assoc "alpha" plans)) in
  List.iter
    (fun (op, w) ->
      if w > max_delta_words_per_size then begin
        Printf.eprintf
          "scale_check: alpha %s allocated %.1f words per (n + m) (bound \
           %.0f)\n"
          op w max_delta_words_per_size;
        exit 1
      end)
    deltas;
  let served = served_delta_words_per_size (fst (List.assoc "alpha" plans)) in
  List.iter
    (fun (op, w) ->
      if w > max_served_delta_words_per_size then begin
        Printf.eprintf
          "scale_check: a served alpha %s allocated %.1f words per (n + m) \
           (bound %.0f)\n"
          op w max_served_delta_words_per_size;
        exit 1
      end)
    served;
  let parse_words = parse_words_per_byte inst in
  if parse_words > max_parse_words_per_byte then begin
    Printf.eprintf
      "scale_check: parsing the chordal62 text allocated %.2f words per \
       byte (bound %.0f)\n"
      parse_words max_parse_words_per_byte;
    exit 1
  end;
  let build_words = csr_build_words_per_size inst in
  if build_words > max_csr_build_words_per_size then begin
    Printf.eprintf
      "scale_check: building the chordal62 CSR from its edge stream \
       allocated %.2f words per (n + m) (bound %.2f)\n"
      build_words max_csr_build_words_per_size;
    exit 1
  end;
  let resolve_s = resolve_s inst in
  if resolve_s > max_resolve_s then begin
    Printf.eprintf
      "scale_check: 10^4 name resolutions against a %d-name index took \
       %.3fs (bound %.2fs)\n"
      (Workloads.Gen_scale.n inst) resolve_s max_resolve_s;
    exit 1
  end;
  let oc = open_out out in
  Printf.fprintf oc
    "scale-smoke ok: n=%d m=%d components=%d construct=%.3fs compile=%.3fs \
     queries=%d/8\n"
    (Workloads.Gen_scale.n inst)
    (Workloads.Gen_scale.m inst)
    (Minconn.Compiled.n_components plan)
    t_construct t_compile (List.length ps);
  Printf.fprintf oc
    "chordal62 compile allocation: %.0f words per (n + m) (bound %.0f)\n"
    compile_words max_compile_words_per_size;
  Printf.fprintf oc
    "chordal62 classify allocation: %.0f words per (n + m) (bound %.0f)\n"
    classify_words max_compile_words_per_size;
  Printf.fprintf oc
    "connected chordal62 classify: n=%d in %.3fs (bound %.0fs)\n" connected_n
    connected_s max_connected_classify_s;
  Printf.fprintf oc "gnp classify: n=%d in %.3fs (bound %.0fs)\n" gnp_n gnp_s
    max_connected_classify_s;
  Printf.fprintf oc "grid classify: n=%d in %.3fs (bound %.0fs)\n" grid_n
    grid_s max_connected_classify_s;
  List.iter
    (fun (name, n, s) ->
      Printf.fprintf oc "connected %s compile: n=%d in %.3fs (bound %.0fs)\n"
        name n s max_connected_compile_s)
    compiles;
  Printf.fprintf oc
    "connected chordal62 query: n=%d in %.4fs (bound %.3fs), %d words \
     (bound %d)\n"
    query_n query_s max_connected_query_s query_words
    max_connected_query_words;
  Printf.fprintf oc
    "connected alpha query: n=%d in %.3fs (bound %.0fs), %.1f words per \
     (2^t)(n + m) (bound %.0f)\n"
    alpha_n alpha_s max_alpha_query_s alpha_words max_alpha_query_words_per_cell;
  List.iter
    (fun (fam, w) ->
      Printf.fprintf oc "warm query allocation %s: max %d words (bound %d)\n"
        fam w (bound fam))
    words;
  Printf.fprintf oc
    "chordal62 parse allocation: %.2f words per byte (bound %.0f)\n"
    parse_words max_parse_words_per_byte;
  Printf.fprintf oc
    "chordal62 CSR build allocation: %.2f words per (n + m) (bound %.2f)\n"
    build_words max_csr_build_words_per_size;
  Printf.fprintf oc
    "name resolution: 10^4 sets against %d names in %.4fs (bound %.2fs)\n"
    (Workloads.Gen_scale.n inst) resolve_s max_resolve_s;
  List.iter
    (fun (op, w) ->
      Printf.fprintf oc
        "alpha %s delta allocation: %.1f words per (n + m) (bound %.0f)\n" op
        w max_delta_words_per_size)
    deltas;
  List.iter
    (fun (op, w) ->
      Printf.fprintf oc
        "alpha %s served delta allocation: %.1f words per (n + m) (bound \
         %.0f)\n"
        op w max_served_delta_words_per_size)
    served;
  close_out oc
