(* Persistent plan cache battery. Three fronts: (a) round-trip
   fidelity — a plan stored to disk and loaded back answers every
   query (plain, fuel-metered and degrade-off batches) exactly as the
   fresh compile, and re-marshals to the same
   bytes; (b) the corruption battery — every damaged or stale envelope
   (empty, truncated, bit-flipped, wrong version/commit/schema,
   garbage payload) reads as the typed cold miss that names it, never
   a panic or a wrong answer, and [find_or_compile] recovers by
   recompiling and overwriting; (c) crash atomicity — a mid-write
   crash injected via [Runtime.Fault] leaves no visible entry, only a
   temp file the next store ignores and the TTL sweep reaps. Plus the
   LRU eviction policy and a store-succeeds regression over every
   figure graph and checked-in fixture. *)

open Graphs
open Bipartite
open Steiner

let check = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let seed_gen = QCheck2.Gen.int_range 0 1_000_000

module PC = Minconn.Plan_cache

(* ------------------------------------------------- temp-dir plumbing *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "minconn-test-cache.%d.%d" (Unix.getpid ()) !dir_counter)

let rm_rf dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      names;
    (try Unix.rmdir dir with Unix.Unix_error _ -> ())

let with_cache ?max_bytes f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  match PC.create ?max_bytes ~dir () with
  | Ok c -> f dir c
  | Error msg -> Alcotest.failf "cannot create cache in %s: %s" dir msg

let store_ok cache compiled =
  match PC.store cache compiled with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "store failed: %s" msg

let find_ok cache g =
  match PC.find cache g with
  | Ok c -> c
  | Error miss -> Alcotest.failf "expected a hit, got %s" (PC.miss_name miss)

let find_miss cache g =
  match PC.find cache g with
  | Ok _ -> Alcotest.fail "expected a miss, got a hit"
  | Error miss -> PC.miss_name miss

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------- answer-equality helpers *)

let sol_equal (a : Minconn.solution) (b : Minconn.solution) =
  Iset.equal a.Minconn.tree.Tree.nodes b.Minconn.tree.Tree.nodes
  && a.Minconn.tree.Tree.edges = b.Minconn.tree.Tree.edges
  && a.Minconn.method_used = b.Minconn.method_used
  && a.Minconn.optimal = b.Minconn.optimal
  && a.Minconn.profile = b.Minconn.profile
  && a.Minconn.provenance = b.Minconn.provenance

let result_equal u ~p a b =
  match (a, b) with
  | Ok sa, Ok sb ->
    sol_equal sa sb && Tree.verify u ~terminals:p sa.Minconn.tree
  | Error ea, Error eb -> ea = eb
  | Ok _, Error _ | Error _, Ok _ -> false

let batches_equal u queries ra rb =
  List.length ra = List.length rb
  && List.for_all2
       (fun p (a, b) -> result_equal u ~p a b)
       queries (List.combine ra rb)

let query_batch rng g =
  List.init 6 (fun _ ->
      if Workloads.Rng.bool rng 0.1 then Iset.empty
      else
        Workloads.Gen_bipartite.random_terminals rng g
          ~k:(1 + Workloads.Rng.int rng 4))

(* ------------------------------------------------ round-trip property *)

(* The core invariant behind the warm path: a plan that went through
   envelope -> disk -> envelope answers exactly like the compile it
   replaced. Checked on plain sessions and per-query fuel budgets with
   degrade on and off. *)
let loaded_matches_fresh rng g =
  let u = Bigraph.ugraph g in
  let queries = query_batch rng g in
  with_cache @@ fun _dir cache ->
  let fresh = Minconn.Compiled.compile g in
  store_ok cache fresh;
  let loaded = find_ok cache g in
  let bytes_stable =
    Minconn.Compiled.to_bytes loaded = Minconn.Compiled.to_bytes fresh
  in
  let sf = Minconn.Session.create fresh in
  let sl = Minconn.Session.create loaded in
  let plain =
    batches_equal u queries
      (Minconn.Session.solve_many sf queries)
      (Minconn.Session.solve_many sl queries)
  in
  let fuel = 1 + Workloads.Rng.int rng 40 in
  let mb _ = Minconn.Budget.make ~fuel () in
  let fueled =
    batches_equal u queries
      (Minconn.Session.solve_many ~make_budget:mb sf queries)
      (Minconn.Session.solve_many ~make_budget:mb sl queries)
  in
  let no_degrade =
    batches_equal u queries
      (Minconn.Session.solve_many ~make_budget:mb ~degrade:false sf queries)
      (Minconn.Session.solve_many ~make_budget:mb ~degrade:false sl queries)
  in
  bytes_stable && plain && fueled && no_degrade

let prop_family ~name gen =
  QCheck2.Test.make ~count:40 ~name seed_gen (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      loaded_matches_fresh rng (gen rng))

let prop_roundtrip_gnp =
  prop_family ~name:"loaded plan = fresh compile (bipartite G(n,p))"
    (fun rng ->
      let nl = 2 + Workloads.Rng.int rng 9
      and nr = 2 + Workloads.Rng.int rng 9 in
      Workloads.Gen_bipartite.gnp rng ~nl ~nr ~p:0.3)

let prop_roundtrip_chordal62 =
  prop_family ~name:"loaded plan = fresh compile ((6,2)-chordal)" (fun rng ->
      let n_right = 2 + Workloads.Rng.int rng 6 in
      Workloads.Gen_bipartite.chordal_62 rng ~n_right ~max_size:4)

let prop_roundtrip_alpha =
  prop_family ~name:"loaded plan = fresh compile (alpha-acyclic)" (fun rng ->
      let n_right = 2 + Workloads.Rng.int rng 6 in
      Workloads.Gen_bipartite.alpha_bipartite rng ~n_right ~max_size:4)

let prop_roundtrip_forest =
  prop_family ~name:"loaded plan = fresh compile (forest)" (fun rng ->
      let n = 2 + Workloads.Rng.int rng 12 in
      Workloads.Gen_bipartite.forest rng ~n)

(* The schema hash keys the store: equal graphs agree on it, and any
   edge/size perturbation moves it (so a stale entry can never be
   offered to the wrong schema). *)
let prop_schema_hash_keys =
  QCheck2.Test.make ~count:100 ~name:"schema_hash separates schemas"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let nl = 2 + Workloads.Rng.int rng 9
      and nr = 2 + Workloads.Rng.int rng 9 in
      let g = Workloads.Gen_bipartite.gnp rng ~nl ~nr ~p:0.3 in
      let h = Minconn.Compiled.schema_hash g in
      let same = h = Minconn.Compiled.schema_hash g in
      let bigger =
        Workloads.Gen_bipartite.gnp rng ~nl:(nl + 1) ~nr ~p:0.3
      in
      same && h <> Minconn.Compiled.schema_hash bigger)

(* ---------------------------------------------- corruption battery *)

let test_graph () =
  let rng = Workloads.Rng.make ~seed:42 in
  let g = Workloads.Gen_bipartite.chordal_62 rng ~n_right:5 ~max_size:4 in
  let p = Workloads.Gen_bipartite.random_terminals rng g ~k:3 in
  (g, p)

(* Damage one stored entry, then demand the full recovery contract:
   [find] reports exactly the expected typed miss, [find_or_compile]
   still produces the fresh answer (recompile, never a panic or a
   wrong result), and its overwrite turns the next [find] into a
   hit. *)
let corruption_case ~name ~expect mutate () =
  let g, p = test_graph () in
  let u = Bigraph.ugraph g in
  with_cache @@ fun _dir cache ->
  let fresh = Minconn.Compiled.compile g in
  store_ok cache fresh;
  let entry = PC.entry_path cache g in
  mutate entry (read_file entry);
  check_string (name ^ ": miss reason") expect (find_miss cache g);
  let recovered, outcome = PC.find_or_compile ~cache g in
  check (name ^ ": recovery is a miss") true (outcome = `Miss);
  let want = Minconn.Session.query (Minconn.Session.create fresh) ~p in
  let got = Minconn.Session.query (Minconn.Session.create recovered) ~p in
  check (name ^ ": recovered answer equals fresh") true
    (result_equal u ~p want got);
  ignore (find_ok cache g : Minconn.Compiled.t);
  check_string (name ^ ": entry healed") "hit"
    (match PC.find_or_compile ~cache g with _, `Hit -> "hit" | _ -> "miss")

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  Bytes.to_string b

(* Re-wrap an arbitrary payload in a self-consistent envelope: length
   and digest match the bytes, so only the innermost guard
   ([Compiled.of_bytes]) can reject it. *)
let reenvelope entry payload =
  let blob = read_file entry in
  let commit_line =
    match String.split_on_char '\n' blob with
    | _magic :: commit :: _ -> commit
    | _ -> Alcotest.fail "stored entry has no commit line"
  in
  let schema =
    Filename.chop_suffix (Filename.basename entry) ".plan"
  in
  Printf.sprintf
    "minconn-plan/%d\n%s\nschema %s\nlength %d\ndigest %s\n%s"
    PC.format_version commit_line schema (String.length payload)
    (Digest.to_hex (Digest.string payload))
    payload

let corruption_cases =
  [
    ("empty file", "truncated", fun entry _blob -> write_file entry "");
    ( "header cut mid-envelope",
      "truncated",
      fun entry blob ->
        (* Keep the magic and commit lines only. *)
        let upto =
          let first = String.index blob '\n' in
          String.index_from blob (first + 1) '\n' + 1
        in
        write_file entry (String.sub blob 0 upto) );
    ( "payload truncated",
      "truncated",
      fun entry blob ->
        write_file entry (String.sub blob 0 (String.length blob - 10)) );
    ( "trailing garbage appended",
      "truncated",
      fun entry blob -> write_file entry (blob ^ "xxxx") );
    ( "payload bit flip",
      "checksum-mismatch",
      fun entry blob ->
        write_file entry (flip_byte blob (String.length blob - 3)) );
    ( "future format version",
      "version-mismatch",
      fun entry blob ->
        let rest = String.sub blob 14 (String.length blob - 14) in
        write_file entry ("minconn-plan/9" ^ rest) );
    ( "foreign build commit",
      "commit-mismatch",
      fun entry blob ->
        let nl = String.index blob '\n' in
        let rest =
          let second = String.index_from blob (nl + 1) '\n' in
          String.sub blob second (String.length blob - second)
        in
        write_file entry
          (String.sub blob 0 (nl + 1) ^ "commit someone-elses-build" ^ rest)
    );
    ( "entry filed under wrong schema",
      "schema-mismatch",
      fun entry blob ->
        (* Same bytes, different key: simulate a renamed/collided
           entry by rewriting the schema header line. *)
        let hash = String.make 32 '0' in
        let lines = String.split_on_char '\n' blob in
        let rewritten =
          List.mapi
            (fun i l -> if i = 2 then "schema " ^ hash else l)
            lines
        in
        write_file entry (String.concat "\n" rewritten) );
    ( "not an envelope at all",
      "unreadable",
      fun entry _blob -> write_file entry "PK\x03\x04 random zip junk\n" );
    ( "valid envelope, garbage payload",
      "unreadable",
      fun entry _blob ->
        write_file entry (reenvelope entry "this is not a marshal blob") );
    ( "valid envelope, truncated marshal",
      "unreadable",
      fun entry blob ->
        (* A cut Marshal blob behind a recomputed digest: the envelope
           passes, [of_bytes] must still refuse. *)
        let nl4 =
          let rec skip i k =
            if k = 0 then i else skip (String.index_from blob i '\n' + 1) (k - 1)
          in
          skip 0 5
        in
        let payload = String.sub blob nl4 (String.length blob - nl4) in
        let cut = String.sub payload 0 (String.length payload / 2) in
        write_file entry (reenvelope entry cut) );
    ( "previous format version",
      "version-mismatch",
      fun entry blob ->
        (* A format-5 entry marshals components with Algorithm 1's
           W, a field format 6 dropped: it must be refused before its
           payload is unmarshaled. *)
        let rest = String.sub blob 14 (String.length blob - 14) in
        write_file entry ("minconn-plan/5" ^ rest) );
  ]

let test_miss_absent () =
  let g, _ = test_graph () in
  with_cache @@ fun _dir cache ->
  check_string "no entry yet" "absent" (find_miss cache g)

(* The publish rename survives one transient failure — injected via
   the ["cache.rename"] Fault hook — retried exactly once, counted as
   [cache.store_retry], with the entry visible afterwards. Two
   consecutive failures spend the retry and degrade to the uncached
   path: typed error, no published entry, no temp residue. *)
let test_rename_retry () =
  let g, _ = test_graph () in
  with_cache @@ fun dir cache ->
  let metrics = Observe.Metrics.make () in
  Runtime.Fault.with_op ~op:"cache.rename" ~times:1 (fun () ->
      match PC.store ~metrics cache (Minconn.Compiled.compile g) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "store with one rename fault: %s" m);
  check "retry counted once" true
    (List.assoc_opt "cache.store_retry" (Observe.Metrics.counters metrics)
    = Some 1);
  ignore (find_ok cache g : Minconn.Compiled.t);
  let g2 =
    Workloads.Gen_bipartite.gnp (Workloads.Rng.make ~seed:77) ~nl:6 ~nr:6
      ~p:0.4
  in
  let metrics2 = Observe.Metrics.make () in
  Runtime.Fault.with_op ~op:"cache.rename" ~times:2 (fun () ->
      match PC.store ~metrics:metrics2 cache (Minconn.Compiled.compile g2) with
      | Error msg ->
        check_string "typed degrade" "injected fault: cache.rename" msg
      | Ok () -> Alcotest.fail "store must degrade once the retry is spent");
  check "spent retry still counted" true
    (List.assoc_opt "cache.store_retry" (Observe.Metrics.counters metrics2)
    = Some 1);
  check_string "no entry published" "absent" (find_miss cache g2);
  check "no temp residue" true
    (Array.for_all
       (fun n -> not (Filename.check_suffix n ".tmp"))
       (Sys.readdir dir))

(* ------------------------------------------------- crash atomicity *)

let test_crash_before_first_byte () =
  let g, p = test_graph () in
  let u = Bigraph.ugraph g in
  with_cache @@ fun dir cache ->
  let fresh = Minconn.Compiled.compile g in
  let entry = PC.entry_path cache g in
  (match
     Runtime.Fault.with_write_crash ~after_bytes:0 (fun () ->
         PC.store cache fresh)
   with
  | _ -> Alcotest.fail "armed store did not crash"
  | exception Runtime.Fault.Injected_crash -> ());
  check "no visible entry after crash" false (Sys.file_exists entry);
  let tmp_left =
    Array.exists
      (fun n -> Filename.check_suffix n ".tmp")
      (Sys.readdir dir)
  in
  check "partial temp left behind (real-crash state)" true tmp_left;
  check_string "reader sees a cold miss" "absent" (find_miss cache g);
  (* Recovery: the next store renames over cleanly and answers match. *)
  store_ok cache fresh;
  let loaded = find_ok cache g in
  let want = Minconn.Session.query (Minconn.Session.create fresh) ~p in
  let got = Minconn.Session.query (Minconn.Session.create loaded) ~p in
  check "post-crash store serves the right answer" true
    (result_equal u ~p want got)

(* A plan bigger than one write chunk, killed mid-file: the temp holds
   a prefix, the final path never appears. *)
let test_crash_mid_write () =
  let rng = Workloads.Rng.make ~seed:7 in
  (* Dense enough that even the compact CSR-only serialized form spans
     several 64 KiB write chunks. *)
  let g = Workloads.Gen_bipartite.gnp rng ~nl:400 ~nr:400 ~p:0.15 in
  with_cache @@ fun dir cache ->
  let fresh = Minconn.Compiled.compile g in
  let blob_len = String.length (Minconn.Compiled.to_bytes fresh) in
  check "plan spans multiple write chunks" true (blob_len > 2 * 65536);
  let entry = PC.entry_path cache g in
  (match
     Runtime.Fault.with_write_crash ~after_bytes:65536 (fun () ->
         PC.store cache fresh)
   with
  | _ -> Alcotest.fail "armed store did not crash"
  | exception Runtime.Fault.Injected_crash -> ());
  check "no visible entry after mid-write crash" false
    (Sys.file_exists entry);
  let partial =
    Array.fold_left
      (fun acc n ->
        if Filename.check_suffix n ".tmp" then
          Some (Unix.stat (Filename.concat dir n)).Unix.st_size
        else acc)
      None (Sys.readdir dir)
  in
  (match partial with
  | None -> Alcotest.fail "expected a partial temp file"
  | Some sz ->
    check "temp holds a strict prefix" true (sz >= 65536 && sz < blob_len));
  check_string "reader still sees a cold miss" "absent" (find_miss cache g);
  store_ok cache fresh;
  ignore (find_ok cache g : Minconn.Compiled.t)

let test_stale_temp_sweep () =
  let g, _ = test_graph () in
  with_cache @@ fun dir cache ->
  let stale = Filename.concat dir "deadbeef.plan.999.1.tmp" in
  write_file stale "partial";
  Unix.utimes stale 1.0 1.0;
  let fresh_tmp = Filename.concat dir "cafebabe.plan.999.2.tmp" in
  write_file fresh_tmp "partial";
  store_ok cache (Minconn.Compiled.compile g);
  check "stale temp reaped by the post-store sweep" false
    (Sys.file_exists stale);
  check "recent temp (a live writer's) kept" true (Sys.file_exists fresh_tmp)

(* ------------------------------------------------------ LRU policy *)

let test_lru_eviction () =
  let rng = Workloads.Rng.make ~seed:11 in
  let graphs =
    List.init 4 (fun _ ->
        Workloads.Gen_bipartite.gnp rng ~nl:8 ~nr:8 ~p:0.4)
  in
  match graphs with
  | [ g1; g2; g3; g4 ] ->
    let dir = fresh_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let big =
      match PC.create ~dir () with
      | Ok c -> c
      | Error m -> Alcotest.failf "create: %s" m
    in
    List.iter (fun g -> store_ok big (Minconn.Compiled.compile g)) graphs;
    let size g =
      match List.assoc_opt (Minconn.Compiled.schema_hash g) (PC.entries big) with
      | Some s -> s
      | None -> Alcotest.failf "entry for graph missing after store"
    in
    let s2 = size g2 and s3 = size g3 and s4 = size g4 in
    (* Pin the recency order: g1 oldest ... g4 newest. *)
    List.iteri
      (fun i g ->
        Unix.utimes (PC.entry_path big g) (float_of_int (100 * (i + 1)))
          (float_of_int (100 * (i + 1))))
      graphs;
    (* A cap with room for exactly the three newest: re-storing g4
       must evict g1 (LRU), keep g2 and g3, and never evict itself. *)
    let capped =
      match PC.create ~max_bytes:(s2 + s3 + s4) ~dir () with
      | Ok c -> c
      | Error m -> Alcotest.failf "create capped: %s" m
    in
    let metrics = Observe.Metrics.make () in
    (match PC.store ~metrics capped (Minconn.Compiled.compile g4) with
    | Ok () -> ()
    | Error m -> Alcotest.failf "capped store: %s" m);
    check "oldest entry evicted" false (Sys.file_exists (PC.entry_path capped g1));
    check "second-oldest kept" true (Sys.file_exists (PC.entry_path capped g2));
    check "third kept" true (Sys.file_exists (PC.entry_path capped g3));
    check "just-written entry never evicted" true
      (Sys.file_exists (PC.entry_path capped g4));
    check "under the cap afterwards" true
      (PC.total_bytes capped <= s2 + s3 + s4);
    check "eviction counted" true
      (List.assoc_opt "cache.evict" (Observe.Metrics.counters metrics) = Some 1)
  | _ -> assert false

(* A hit refreshes recency: after touching the oldest entry via
   [find], the eviction victim is the *second*-oldest. *)
let test_lru_hit_refreshes () =
  let rng = Workloads.Rng.make ~seed:13 in
  let graphs =
    List.init 3 (fun _ ->
        Workloads.Gen_bipartite.gnp rng ~nl:8 ~nr:8 ~p:0.4)
  in
  match graphs with
  | [ g1; g2; g3 ] ->
    let dir = fresh_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let big =
      match PC.create ~dir () with
      | Ok c -> c
      | Error m -> Alcotest.failf "create: %s" m
    in
    List.iter (fun g -> store_ok big (Minconn.Compiled.compile g)) graphs;
    let size g =
      match List.assoc_opt (Minconn.Compiled.schema_hash g) (PC.entries big) with
      | Some s -> s
      | None -> Alcotest.failf "entry missing"
    in
    let total = size g1 + size g2 + size g3 in
    List.iteri
      (fun i g ->
        Unix.utimes (PC.entry_path big g) (float_of_int (100 * (i + 1)))
          (float_of_int (100 * (i + 1))))
      [ g1; g2 ];
    ignore (find_ok big g1 : Minconn.Compiled.t);
    (* One byte short of fitting everything: exactly one entry must
       go, and recency (not insertion order) must pick it. *)
    let capped =
      match PC.create ~max_bytes:(total - 1) ~dir () with
      | Ok c -> c
      | Error m -> Alcotest.failf "create capped: %s" m
    in
    store_ok capped (Minconn.Compiled.compile g3);
    check "touched entry survives" true
      (Sys.file_exists (PC.entry_path capped g1));
    check "untouched older entry evicted" false
      (Sys.file_exists (PC.entry_path capped g2))
  | _ -> assert false

(* -------------------------------------- metrics and counters *)

let test_counters () =
  let g, _ = test_graph () in
  with_cache @@ fun _dir cache ->
  let metrics = Observe.Metrics.make () in
  let count name =
    match List.assoc_opt name (Observe.Metrics.counters metrics) with
    | Some n -> n
    | None -> 0
  in
  ignore (PC.find_or_compile ~metrics ~cache g);
  check "first lookup misses" true (count "cache.miss" = 1);
  check "miss stores" true (count "cache.store" = 1);
  ignore (PC.find_or_compile ~metrics ~cache g);
  check "second lookup hits" true (count "cache.hit" = 1);
  check "no spurious second store" true (count "cache.store" = 1)

(* --------------------------------------------- evolved-plan entries *)

(* The delta-aware lookup ladder: the evolved schema's own entry ->
   the base schema's cached plan patched through the deltas -> a cold
   compile of the evolved schema. Every plan is stored under its own
   schema hash, so a patched plan is the entry a plain [find] on the
   evolved graph hits, and it answers exactly like a fresh compile of
   the evolved schema. *)
let test_evolved_cache () =
  let rng = Workloads.Rng.make ~seed:4242 in
  let g, _ = test_graph () in
  with_cache @@ fun _dir cache ->
  let metrics = Observe.Metrics.make () in
  let count name =
    match List.assoc_opt name (Observe.Metrics.counters metrics) with
    | Some n -> n
    | None -> 0
  in
  let apply_all deltas =
    match Minconn.Delta.apply_all g deltas with
    | Ok t -> t
    | Error m -> Alcotest.failf "deltas do not apply: %s" m
  in
  let keys () = List.sort compare (List.map fst (PC.entries cache)) in
  let hashes gs = List.sort compare (List.map Minconn.Compiled.schema_hash gs) in
  (* Patch: with the base's plan cached, the first lookup patches it
     instead of recompiling. *)
  store_ok cache (Minconn.Compiled.compile g);
  let deltas = [ Minconn.Delta.Add_relation (Iset.of_list [ 0 ]) ] in
  let target = apply_all deltas in
  let c1, o1 = PC.find_or_compile ~metrics ~cache ~deltas g in
  check "served by patching the cached base plan" true (o1 = `Patched);
  check "patch counted" true (count "cache.patched" = 1);
  let u = Bigraph.ugraph target in
  let p = Workloads.Gen_bipartite.random_terminals rng target ~k:3 in
  let fresh = Minconn.Compiled.compile target in
  let want = Minconn.Session.query (Minconn.Session.create fresh) ~p in
  let got = Minconn.Session.query (Minconn.Session.create c1) ~p in
  check "patched plan answers like the fresh compile" true
    (result_equal u ~p want got);
  (* The patched plan is the evolved schema's entry: a plain [find] on
     the evolved graph hits it, and the evolved schema has one entry. *)
  check "find on the evolved graph loads the patched plan" true
    (Minconn.Bigraph.equal
       (Minconn.Compiled.graph (find_ok cache target))
       target);
  check "one entry per schema" true (keys () = hashes [ g; target ]);
  let _c2, o2 = PC.find_or_compile ~metrics ~cache ~deltas g in
  check "the evolved entry is a hit" true (o2 = `Hit);
  (* A delta sequence that ends where it began is the base schema: its
     own entry hits, and nothing new is stored. *)
  let back =
    [
      Minconn.Delta.Add_relation (Iset.of_list [ 0 ]);
      Minconn.Delta.Remove_relation (Bigraph.nr g);
    ]
  in
  let _c3, o3 = PC.find_or_compile ~metrics ~cache ~deltas:back g in
  check "a round-trip delta sequence hits the base entry" true (o3 = `Hit);
  check "nothing new stored" true (keys () = hashes [ g; target ]);
  (* Cold: without the base's plan, compile the evolved schema and
     store it under its own hash, creating no entry for the base. *)
  Sys.remove (PC.entry_path cache g);
  let deltas2 = [ Minconn.Delta.Add_relation (Iset.of_list [ 0; 1 ]) ] in
  let target2 = apply_all deltas2 in
  let c4, o4 = PC.find_or_compile ~metrics ~cache ~deltas:deltas2 g in
  check "cold delta lookup is a miss" true (o4 = `Miss);
  check "cold delta lookup compiles the evolved schema" true
    (Minconn.Bigraph.equal (Minconn.Compiled.graph c4) target2);
  check_string "no entry for the base schema" "absent" (find_miss cache g);
  check "cold entry stored under its own hash" true
    (keys () = hashes [ target; target2 ])

(* ------------------------------- marshal-safety regression (fixtures) *)

(* Every figure graph and every checked-in fixture must survive
   compile -> to_bytes -> of_bytes -> store -> find. This is the
   regression gate for the Compiled.t marshal-safety audit: a closure
   or lazy smuggled into the plan type fails here on every input, not
   just in production. *)
let test_save_every_figure () =
  with_cache @@ fun _dir cache ->
  List.iter
    (fun (name, labeled) ->
      let g = labeled.Datamodel.Figures.graph in
      let compiled = Minconn.Compiled.compile g in
      let bytes =
        match Minconn.Compiled.to_bytes compiled with
        | b -> b
        | exception Invalid_argument msg ->
          Alcotest.failf "%s: Compiled.t not marshalable: %s" name msg
      in
      (match Minconn.Compiled.of_bytes bytes with
      | Some c -> check (name ^ ": graph round-trips") true
          (Minconn.Bigraph.equal (Minconn.Compiled.graph c) g)
      | None -> Alcotest.failf "%s: of_bytes rejected own output" name);
      (match PC.store cache compiled with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: store failed: %s" name m);
      ignore (find_ok cache g : Minconn.Compiled.t))
    Datamodel.Figures.all_labeled

let test_save_every_fixture () =
  with_cache @@ fun _dir cache ->
  (* runtest runs in the test build dir; `dune exec` from the root. *)
  let fixture_dir =
    if Sys.file_exists "fixtures" then "fixtures" else "test/fixtures"
  in
  let fixtures =
    match Sys.readdir fixture_dir with
    | exception Sys_error _ -> [||]
    | names ->
      Array.of_list
        (List.filter
           (fun n -> Filename.check_suffix n ".bigraph")
           (Array.to_list names))
  in
  check "at least one .bigraph fixture present" true
    (Array.length fixtures > 0);
  Array.iter
    (fun name ->
      let path = Filename.concat fixture_dir name in
      match Mc_io.Parse.bigraph_of_string (read_file path) with
      | Error _ -> Alcotest.failf "%s: fixture does not parse" name
      | Ok nb ->
        let g = nb.Mc_io.Parse.graph in
        let compiled = Minconn.Compiled.compile g in
        (match PC.store cache compiled with
        | Ok () -> ()
        | Error m -> Alcotest.failf "%s: store failed: %s" name m);
        ignore (find_ok cache g : Minconn.Compiled.t))
    fixtures

(* ------------------------------------------------------------ glue *)

let qcheck_cases =
  [
    prop_roundtrip_gnp;
    prop_roundtrip_chordal62;
    prop_roundtrip_alpha;
    prop_roundtrip_forest;
    prop_schema_hash_keys;
  ]

let () =
  Alcotest.run "plan_cache"
    [
      ("round-trip", List.map QCheck_alcotest.to_alcotest qcheck_cases);
      ( "corruption",
        Alcotest.test_case "absent entry" `Quick test_miss_absent
        :: List.map
             (fun (name, expect, mutate) ->
               Alcotest.test_case name `Quick
                 (corruption_case ~name ~expect mutate))
             corruption_cases );
      ( "crash",
        [
          Alcotest.test_case "crash before first byte" `Quick
            test_crash_before_first_byte;
          Alcotest.test_case "crash mid-write" `Quick test_crash_mid_write;
          Alcotest.test_case "stale temp sweep" `Quick test_stale_temp_sweep;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "LRU under a byte cap" `Quick test_lru_eviction;
          Alcotest.test_case "hit refreshes recency" `Quick
            test_lru_hit_refreshes;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "rename retried once and counted" `Quick
            test_rename_retry;
        ] );
      ( "evolution",
        [
          Alcotest.test_case "evolved-plan lookup ladder" `Quick
            test_evolved_cache;
        ] );
      ( "marshal-safety",
        [
          Alcotest.test_case "every figure graph saves" `Quick
            test_save_every_figure;
          Alcotest.test_case "every fixture saves" `Quick
            test_save_every_fixture;
        ] );
    ]
