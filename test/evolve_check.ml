(* evolve-smoke driver: apply the checked-in delta file to the fixture
   schema and require that the incrementally patched plan answers the
   fixture queries byte-identically to `solve` on the emitted evolved
   schema — cold, patched-from-cache, and evolved-entry hit — and that
   the plan cache keys the evolved plan by the evolved schema's
   content, so compiling the emitted file hits it. Usage:
     evolve_check CLI FIXTURE DELTAS QUERIES \
       EVOLVED_OUT SOLVE_OUT EVOLVE_OUT CACHED_OUT
   Exits nonzero with a diagnostic on any violation, failing the dune
   rule (and hence runtest). *)

let fail fmt =
  Printf.ksprintf (fun s -> prerr_endline ("evolve-smoke: " ^ s); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let () =
  let cli, fixture, deltas, queries, evolved_out, solve_out, evolve_out,
      cached_out =
    match Sys.argv with
    | [| _; a; b; c; d; e; f; g; h |] -> (a, b, c, d, e, f, g, h)
    | _ ->
      fail
        "usage: evolve_check CLI FIXTURE DELTAS QUERIES EVOLVED_OUT \
         SOLVE_OUT EVOLVE_OUT CACHED_OUT"
  in
  let sh cmd =
    let code = Sys.command cmd in
    if code <> 0 then fail "command exited %d: %s" code cmd
  in
  let q = Filename.quote in
  (* The evolved schema as a plain graph file... *)
  sh
    (Printf.sprintf "%s evolve %s --deltas %s --emit > %s 2> /dev/null"
       (q cli) (q fixture) (q deltas) (q evolved_out));
  (* ...answered from scratch by the ordinary batch entry point... *)
  sh
    (Printf.sprintf "%s solve %s --queries %s > %s"
       (q cli) (q evolved_out) (q queries) (q solve_out));
  let want = read_file solve_out in
  if want = "" then fail "solve on the evolved schema produced no output";
  (* ...must match the incrementally patched plan byte for byte. *)
  sh
    (Printf.sprintf "%s evolve %s --deltas %s --queries %s > %s 2> /dev/null"
       (q cli) (q fixture) (q deltas) (q queries) (q evolve_out));
  if read_file evolve_out <> want then
    fail "evolve --queries answers differ from solve on the evolved schema";
  (* Same contract through the plan cache: seed the base entry, then
     the first evolve must patch it and the second must hit the stored
     evolved entry — both byte-identical again. The evolved entry is
     the evolved schema's own, so compiling the emitted file hits it. *)
  let dir = "evolve_smoke_store" in
  (match Sys.readdir dir with
  | names -> Array.iter (fun n -> Sys.remove (Filename.concat dir n)) names
  | exception Sys_error _ -> ());
  sh
    (Printf.sprintf "%s compile %s --plan-cache %s > /dev/null"
       (q cli) (q fixture) (q dir));
  let cached_evolve err_to =
    sh
      (Printf.sprintf
         "%s evolve %s --deltas %s --queries %s --plan-cache %s > %s 2> %s"
         (q cli) (q fixture) (q deltas) (q queries) (q dir) (q cached_out)
         (q err_to))
  in
  cached_evolve (cached_out ^ ".err1");
  if not (contains (read_file (cached_out ^ ".err1")) "cache=patched") then
    fail "first cached evolve did not patch the base plan";
  if read_file cached_out <> want then
    fail "patched-plan answers differ from solve on the evolved schema";
  cached_evolve (cached_out ^ ".err2");
  if not (contains (read_file (cached_out ^ ".err2")) "cache=hit") then
    fail "second cached evolve did not hit the stored evolved entry";
  if read_file cached_out <> want then
    fail "evolved-entry answers differ from solve on the evolved schema";
  let compiled_out = cached_out ^ ".compile" in
  sh
    (Printf.sprintf "%s compile %s --plan-cache %s > %s"
       (q cli) (q evolved_out) (q dir) (q compiled_out));
  if not (contains (read_file compiled_out) "cache=hit") then
    fail "compile on the emitted evolved schema missed the evolved entry"
