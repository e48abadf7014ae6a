(* evolve-smoke driver: apply the checked-in delta file to the fixture
   schema and require that the incrementally patched plan answers the
   fixture queries byte-identically to `solve` on the emitted evolved
   schema. Usage:
     evolve_check CLI FIXTURE DELTAS QUERIES EVOLVED_OUT SOLVE_OUT \
       EVOLVE_OUT
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

let () =
  let cli, fixture, deltas, queries, evolved_out, solve_out, evolve_out =
    match Sys.argv with
    | [| _; a; b; c; d; e; f; g |] -> (a, b, c, d, e, f, g)
    | _ ->
      fail
        "usage: evolve_check CLI FIXTURE DELTAS QUERIES EVOLVED_OUT \
         SOLVE_OUT EVOLVE_OUT"
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
    fail "evolve --queries answers differ from solve on the evolved schema"
