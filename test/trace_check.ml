(* trace-smoke driver: run the CLI with --trace/--metrics on a fixture
   instance and validate the shape of the emitted event stream.  Usage:
     trace_check CLI FIXTURE TRACE_OUT METRICS_OUT
   Exits nonzero with a diagnostic on any violation, failing the dune
   rule (and hence runtest). *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("trace-smoke: " ^ s); exit 1) fmt

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
  let cli, fixture, trace_out, metrics_out =
    match Sys.argv with
    | [| _; a; b; c; d |] -> (a, b, c, d)
    | _ -> fail "usage: trace_check CLI FIXTURE TRACE_OUT METRICS_OUT"
  in
  let cmd =
    Printf.sprintf "%s solve %s -t A,C --trace %s --metrics %s > /dev/null"
      (Filename.quote cli) (Filename.quote fixture) (Filename.quote trace_out)
      (Filename.quote metrics_out)
  in
  let code = Sys.command cmd in
  if code <> 0 then fail "CLI exited %d on the fixture" code;
  let trace = read_file trace_out in
  (match Observe.Export.validate_ndjson_string trace with
  | Error e -> fail "invalid trace stream: %s" e
  | Ok 0 -> fail "trace stream is empty"
  | Ok _ -> ());
  (* Shape: a parse span for the schema file, a root solve span, a
     classification span, at least one ladder rung, and a ladder
     outcome event. *)
  List.iter
    (fun needle ->
      if not (contains trace needle) then
        fail "trace stream lacks %s" needle)
    [
      "\"name\":\"parse\"";
      "\"name\":\"solve\"";
      "\"name\":\"classify\"";
      "\"name\":\"rung:";
      "\"name\":\"ladder.";
    ];
  match Observe.Export.validate_metrics_string (read_file metrics_out) with
  | Error e -> fail "invalid metrics snapshot: %s" e
  | Ok _ -> ()
