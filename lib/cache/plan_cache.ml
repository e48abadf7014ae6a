module Compiled = Engine.Compiled
module Bigraph = Bipartite.Bigraph
module Delta = Bipartite.Delta
module Fault = Runtime.Fault

(* Format 3 changed the payload layout: the graph is a CSR-only record
   and components no longer carry an [order] list. Format 4 drops the
   header line that named the delta sequence a plan was patched along:
   a plan is keyed by its schema's content alone, however it was
   built. Format 5 stores Algorithm 1's prep as W alone, in slice
   ids, without its own copy of the component's node set. Format 6
   drops that prep: a component is its node set and its profile. *)
let format_version = 6
let magic = Printf.sprintf "minconn-plan/%d" format_version

let default_commit =
  match Sys.getenv_opt "MINCONN_COMMIT" with
  | Some c when c <> "" -> c
  | _ -> "minconn-1.0.0+ocaml-" ^ Sys.ocaml_version

type t = { dir : string; max_bytes : int; commit : string }

let dir t = t.dir
let max_bytes t = t.max_bytes

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(max_bytes = 256 * 1024 * 1024) ?(commit = default_commit) ~dir ()
    =
  if max_bytes < 0 then invalid_arg "Plan_cache.create: negative max_bytes";
  match
    (* The probe settles writability even where permission bits lie
       (running as root, read-only mounts): creating a file is the
       operation [store] actually needs. *)
    mkdir_p dir;
    if not (Sys.is_directory dir) then failwith "not a directory";
    let probe = Filename.concat dir ".probe" in
    let oc = open_out_bin probe in
    close_out oc;
    Sys.remove probe
  with
  | () -> Ok { dir; max_bytes; commit }
  | exception Sys_error msg -> Error msg
  | exception Failure msg -> Error (dir ^ ": " ^ msg)
  | exception Unix.Unix_error (e, _, _) ->
    Error (dir ^ ": " ^ Unix.error_message e)

type miss =
  | Absent
  | Version_mismatch
  | Commit_mismatch
  | Schema_mismatch
  | Truncated
  | Checksum_mismatch
  | Unreadable of string

let miss_name = function
  | Absent -> "absent"
  | Version_mismatch -> "version-mismatch"
  | Commit_mismatch -> "commit-mismatch"
  | Schema_mismatch -> "schema-mismatch"
  | Truncated -> "truncated"
  | Checksum_mismatch -> "checksum-mismatch"
  | Unreadable _ -> "unreadable"

let path_of_key t key = Filename.concat t.dir (key ^ ".plan")
let entry_path t g = path_of_key t (Compiled.schema_hash g)

(* ------------------------------------------------------------ load *)

let header_field expect line =
  let pre = expect ^ " " in
  let n = String.length pre in
  if String.length line > n && String.sub line 0 n = pre then
    Some (String.sub line n (String.length line - n))
  else None

(* Envelope checks outermost-first, so every stale or damaged layer
   maps to the one miss that names it and Marshal only ever sees
   checksummed same-build bytes. *)
let read_entry t ~hash path =
  match open_in_bin path with
  | exception Sys_error _ ->
    if Sys.file_exists path then Error (Unreadable "cannot open") else Error Absent
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let line () = try Some (input_line ic) with End_of_file -> None in
    (match line () with
    | None -> Error Truncated (* empty file *)
    | Some m when m <> magic ->
      if String.length m >= 13 && String.sub m 0 13 = "minconn-plan/" then
        Error Version_mismatch
      else Error (Unreadable "bad magic")
    | Some _ -> (
      match (line (), line (), line (), line ()) with
      | Some c, Some s, Some l, Some d -> (
        match
          ( header_field "commit" c,
            header_field "schema" s,
            header_field "length" l,
            header_field "digest" d )
        with
        | Some commit, Some schema, Some length, Some digest -> (
          match int_of_string_opt length with
          | None -> Error (Unreadable "bad length field")
          | Some len when len < 0 -> Error (Unreadable "bad length field")
          | Some len ->
            if commit <> t.commit then Error Commit_mismatch
            else if schema <> hash then Error Schema_mismatch
            else if in_channel_length ic - pos_in ic <> len then
              Error Truncated
            else (
              match really_input_string ic len with
              | exception End_of_file -> Error Truncated
              | payload ->
                if Digest.to_hex (Digest.string payload) <> digest then
                  Error Checksum_mismatch
                else Ok payload))
        | _ -> Error (Unreadable "malformed header"))
      | _ -> Error Truncated))

let touch path = try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ()

(* Validate the envelope, unmarshal, and check the recovered plan's
   graph equals [g] — a colliding or mislabeled entry must read as a
   miss, never answer for the wrong graph. *)
let find ?(trace = Observe.Trace.disabled)
    ?(metrics = Observe.Metrics.disabled) ?hash t g =
  Observe.Trace.span trace "plan_cache"
    ~attrs:[ ("op", Observe.Trace.Str "find") ]
  @@ fun () ->
  let hash =
    match hash with Some h -> h | None -> Compiled.schema_hash g
  in
  let path = path_of_key t hash in
  let result =
    match read_entry t ~hash path with
    | Error _ as e -> e
    | Ok payload -> (
      match Compiled.of_bytes payload with
      | None -> Error (Unreadable "unmarshal failed")
      | Some compiled ->
        if Bigraph.equal (Compiled.graph compiled) g then Ok compiled
        else Error Schema_mismatch)
  in
  (match result with
  | Ok _ ->
    touch path;
    Observe.Metrics.incr (Observe.Metrics.counter metrics "cache.hit");
    Observe.Trace.add_attr trace "outcome" (Observe.Trace.Str "hit")
  | Error miss ->
    Observe.Metrics.incr (Observe.Metrics.counter metrics "cache.miss");
    Observe.Trace.add_attr trace "outcome" (Observe.Trace.Str "miss");
    Observe.Trace.add_attr trace "reason"
      (Observe.Trace.Str (miss_name miss)));
  result

(* ----------------------------------------------------------- store *)

let plan_files t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun name ->
           if Filename.check_suffix name ".plan" then
             match Unix.stat (Filename.concat t.dir name) with
             | exception Unix.Unix_error _ -> None
             | st when st.Unix.st_kind = Unix.S_REG ->
               Some (name, st.Unix.st_size, st.Unix.st_mtime)
             | _ -> None
           else None)
    |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)

let entries t =
  List.map
    (fun (name, size, _) -> (Filename.chop_suffix name ".plan", size))
    (plan_files t)

let total_bytes t =
  List.fold_left (fun acc (_, size, _) -> acc + size) 0 (plan_files t)

let temp_ttl_s = 600.0

(* LRU sweep after a store: drop oldest entries until the cap fits
   (never the entry just written), and reap orphaned temp files old
   enough that no live writer can still own them. *)
let evict ?(metrics = Observe.Metrics.disabled) t ~keep =
  let now = Unix.gettimeofday () in
  (match Sys.readdir t.dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        if Filename.check_suffix name ".tmp" then
          let path = Filename.concat t.dir name in
          match Unix.stat path with
          | st when now -. st.Unix.st_mtime > temp_ttl_s ->
            (try Sys.remove path with Sys_error _ -> ())
          | _ | (exception Unix.Unix_error _) -> ())
      names);
  let files = plan_files t in
  let total = List.fold_left (fun acc (_, s, _) -> acc + s) 0 files in
  let excess = ref (total - t.max_bytes) in
  List.iter
    (fun (name, size, _) ->
      if !excess > 0 && name <> keep then (
        match Sys.remove (Filename.concat t.dir name) with
        | () ->
          excess := !excess - size;
          Observe.Metrics.incr (Observe.Metrics.counter metrics "cache.evict")
        | exception Sys_error _ -> ()))
    files

let envelope ~commit ~hash payload =
  Printf.sprintf "%s\ncommit %s\nschema %s\nlength %d\ndigest %s\n"
    magic commit hash (String.length payload)
    (Digest.to_hex (Digest.string payload))

let write_chunk_bytes = 65536

(* The rename that publishes an entry can fail transiently (EINTR from
   a signal, EACCES/EBUSY-class races with scanners on some
   filesystems) without the store being doomed: retry exactly once,
   counted, before degrading to the uncached path. The
   ["cache.rename"] Fault hook stands in for those failures in
   tests. *)
let transient_rename_failure = function
  | Unix.Unix_error
      ((Unix.EINTR | Unix.EACCES | Unix.EAGAIN | Unix.EBUSY | Unix.EPERM), _, _)
    ->
    true
  | Fault.Injected_fault "cache.rename" -> true
  | _ -> false

let rename_entry ~metrics tmp final =
  let attempt () =
    Fault.check_op "cache.rename";
    Unix.rename tmp final
  in
  try attempt ()
  with e when transient_rename_failure e ->
    Observe.Metrics.incr (Observe.Metrics.counter metrics "cache.store_retry");
    attempt ()

let store ?(trace = Observe.Trace.disabled)
    ?(metrics = Observe.Metrics.disabled) ?hash t compiled =
  Observe.Trace.span trace "plan_cache"
    ~attrs:[ ("op", Observe.Trace.Str "store") ]
  @@ fun () ->
  let hash =
    match hash with
    | Some h -> h
    | None -> Compiled.schema_hash (Compiled.graph compiled)
  in
  let final = path_of_key t hash in
  let payload = Compiled.to_bytes compiled in
  let blob = envelope ~commit:t.commit ~hash payload ^ payload in
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" final (Unix.getpid ())
      (Hashtbl.hash (Unix.gettimeofday ()))
  in
  let result =
    match open_out_bin tmp with
    | exception Sys_error msg -> Error msg
    | oc -> (
      (* Chunked so the crash hook can kill the writer mid-file; an
         injected crash leaves the partial temp behind on purpose —
         that is the state a real crash leaves, and what the rename
         protocol must shrug off. *)
      match
        let len = String.length blob in
        let off = ref 0 in
        while !off < len do
          Fault.check_write ~written:!off;
          let k = min write_chunk_bytes (len - !off) in
          output_substring oc blob !off k;
          off := !off + k
        done;
        close_out oc;
        rename_entry ~metrics tmp final
      with
      | () -> Ok ()
      | exception Fault.Injected_crash ->
        close_out_noerr oc;
        raise Fault.Injected_crash
      | exception Sys_error msg ->
        close_out_noerr oc;
        (try Sys.remove tmp with Sys_error _ -> ());
        Error msg
      | exception Unix.Unix_error (e, _, _) ->
        close_out_noerr oc;
        (try Sys.remove tmp with Sys_error _ -> ());
        Error (Unix.error_message e)
      | exception Fault.Injected_fault op ->
        (* Second injected rename failure: the retry is spent, degrade
           to uncached exactly like a real persistent failure. *)
        close_out_noerr oc;
        (try Sys.remove tmp with Sys_error _ -> ());
        Error ("injected fault: " ^ op))
  in
  (match result with
  | Ok () ->
    Observe.Metrics.incr (Observe.Metrics.counter metrics "cache.store");
    Observe.Trace.add_attr trace "bytes"
      (Observe.Trace.Int (String.length blob));
    evict ~metrics t ~keep:(hash ^ ".plan")
  | Error msg ->
    Observe.Trace.add_attr trace "error" (Observe.Trace.Str msg));
  result

(* The plan for [target] is whatever its own entry holds; with deltas,
   a cached plan of the base patched through [Compiled.apply_deltas] is
   the next cheapest (it reuses every untouched component's node set
   and profile), and a cold compile the last resort. Whatever is
   built is stored under [target]'s own hash, computed once. Storing
   is best-effort: a full disk or a lost race must not fail the query
   path. *)
let find_or_compile ?(trace = Observe.Trace.disabled)
    ?(metrics = Observe.Metrics.disabled) ?cache ?(deltas = []) g =
  let target =
    match Delta.apply_all g deltas with
    | Ok target -> target
    | Error msg -> invalid_arg ("Plan_cache.find_or_compile: " ^ msg)
  in
  match cache with
  | None -> (Compiled.compile ~trace ~metrics target, `Miss)
  | Some t -> (
    let hash = Compiled.schema_hash target in
    match find ~trace ~metrics ~hash t target with
    | Ok compiled -> (compiled, `Hit)
    | Error _ ->
      let patched =
        if deltas = [] then None
        else
          match find ~trace ~metrics t g with
          | Error _ -> None
          | Ok base -> (
            match Compiled.apply_deltas ~trace ~metrics base deltas with
            | Ok (compiled, _) -> Some compiled
            | Error _ -> None)
      in
      let compiled, outcome =
        match patched with
        | Some compiled ->
          Observe.Metrics.incr
            (Observe.Metrics.counter metrics "cache.patched");
          (compiled, `Patched)
        | None -> (Compiled.compile ~trace ~metrics target, `Miss)
      in
      ignore (store ~trace ~metrics ~hash t compiled : (unit, string) result);
      (compiled, outcome))
