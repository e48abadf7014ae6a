(* The serving layer's robustness contract, exercised against a live
   in-process server on an ephemeral loopback port:

   - answers are byte-identical to the CLI batch blocks (the
     serve-smoke rule additionally diffs them against a real
     `solve --queries` run over a socket);
   - at max-inflight + k load, excess connections get an immediate
     typed 503 (the <10ms admission bound);
   - above the watermark, answers degrade down the ladder and carry
     provenance headers;
   - an injected handler crash or a torn client read poisons one
     connection only — the listener keeps serving;
   - oversized bodies are rejected typed (413), stalled clients are
     reaped (408), dead peers surface as EPIPE counts, and graceful
     drain force-closes stragglers past its deadline.

   Plus the CLI half of the SIGPIPE satellite: a reader that goes away
   exits the process with the typed input-error code, not a signal
   death. *)

module Server = Serve.Server
module Http = Serve.Http
module Fault = Runtime.Fault
module Metrics = Observe.Metrics

let cli = Filename.concat ".." "bin/minconn_cli.exe"
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let fig3b () =
  match Mc_io.Parse.bigraph_of_string (read_file "fixtures/fig3b.bigraph") with
  | Ok nb -> nb
  | Error _ -> Alcotest.fail "fixture fig3b.bigraph does not parse"

(* ------------------------------------------------------------ client *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  fd

let send fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  if n <> String.length s then Alcotest.fail "short client write"

let request ?(meth = "POST") ?(path = "/solve") ?(close = false) body =
  Printf.sprintf "%s %s HTTP/1.1\r\nHost: t\r\n%sContent-Length: %d\r\n\r\n%s"
    meth path
    (if close then "Connection: close\r\n" else "")
    (String.length body) body

let recv conn =
  match Http.read_response conn with
  | Ok r -> r
  | Error e -> Alcotest.fail ("client read: " ^ Http.read_error_name e)

let post fd conn body =
  send fd (request body);
  recv conn

let hdr r name = Http.resp_header r name

(* -------------------------------------------------------- harness *)

let with_server ?(config = Server.default_config) f =
  let nb = fig3b () in
  let metrics = Metrics.make () in
  match Server.create ~config ~metrics nb with
  | Error msg -> Alcotest.fail ("server create: " ^ msg)
  | Ok srv ->
    let th = Server.start srv in
    Fun.protect
      ~finally:(fun () ->
        Server.stop srv;
        Thread.join th)
      (fun () -> f nb srv metrics)

let counter metrics name =
  Option.value ~default:0 (Metrics.find_counter metrics name)

let await ?(ms = 2000) what pred =
  let deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail ("timed out waiting for " ^ what)
    else begin
      Thread.delay 0.002;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------ round trip *)

let test_round_trip () =
  with_server @@ fun nb srv metrics ->
  let port = Server.port srv in
  let fd = connect port in
  let conn = Http.conn fd in
  let r = post fd conn "A,B" in
  check_int "status" 200 r.Http.code;
  (* Byte-identity with the canonical rendering of the same query. *)
  let expected =
    let compiled = Minconn.Compiled.compile nb.Mc_io.Parse.graph in
    let session = Minconn.Session.create compiled in
    let p =
      match Mc_io.Parse.name_set nb [ "A"; "B" ] with
      | Ok p -> p
      | Error _ -> Alcotest.fail "name_set"
    in
    match Minconn.Session.query session ~p with
    | Ok s -> Serve.Render.solution_block nb s
    | Error _ -> Alcotest.fail "direct query failed"
  in
  check_str "body matches canonical rendering" expected r.Http.resp_body;
  check_str "code header" "0"
    (Option.value ~default:"?" (hdr r "x-minconn-code"));
  check "rung header present" true (hdr r "x-minconn-rung" <> None);
  (* keep-alive: same connection answers again *)
  let r2 = post fd conn "A C" in
  check_int "second request on one connection" 200 r2.Http.code;
  (* input errors stay typed *)
  let r3 = post fd conn "ZZZ" in
  check_int "unknown terminal is 400" 400 r3.Http.code;
  check_str "unknown terminal body" "error: unknown terminal ZZZ\n"
    r3.Http.resp_body;
  let r4 = post fd conn "" in
  check_int "empty terminal set is 400" 400 r4.Http.code;
  Unix.close fd;
  check "requests counted" true (counter metrics "serve.requests" >= 4)

let test_endpoints () =
  with_server @@ fun _nb srv _metrics ->
  let port = Server.port srv in
  let get path =
    let fd = connect port in
    let conn = Http.conn fd in
    send fd (request ~meth:"GET" ~path "");
    let r = recv conn in
    Unix.close fd;
    r
  in
  let m = get "/metrics" in
  check_int "metrics endpoint" 200 m.Http.code;
  (match Observe.Export.validate_metrics_string m.Http.resp_body with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("metrics body invalid: " ^ msg));
  let h = get "/healthz" in
  check_int "healthz" 200 h.Http.code;
  check "healthz says ok" true
    (String.length h.Http.resp_body >= 2
    && String.sub h.Http.resp_body 0 2 = "ok");
  let t = get "/trace" in
  check_int "trace endpoint" 200 t.Http.code;
  check_int "unknown path is 404" 404 (get "/nope").Http.code;
  check_int "GET /solve is 405" 405 (get "/solve").Http.code

(* ---------------------------------------------------- schema delta *)

let test_schema_delta () =
  with_server @@ fun nb srv metrics ->
  let port = Server.port srv in
  let fd = connect port in
  let conn = Http.conn fd in
  let delta_text = "deltas\n+relation 4 A C\n+edge B 4\n" in
  (* A malformed delta file must bounce typed and leave the schema
     of record untouched. *)
  send fd (request ~path:"/schema/delta" "deltas\n+edge A nosuch\n");
  let bad = recv conn in
  check_int "bad delta is 400" 400 bad.Http.code;
  check_str "bad delta is typed" "bad-delta"
    (Option.value ~default:"?" (hdr bad "x-minconn-error"));
  let before = post fd conn "A,C" in
  check_int "schema still serves after rejected delta" 200 before.Http.code;
  (* Now the real evolution: grow relation 4 over {A, C} and wire B
     onto it. *)
  send fd (request ~path:"/schema/delta" delta_text);
  let r = recv conn in
  check_int "delta applied" 200 r.Http.code;
  check_str "delta count header" "2"
    (Option.value ~default:"?" (hdr r "x-minconn-deltas"));
  check "recompiled-components header present" true
    (hdr r "x-minconn-recompiled-components" <> None);
  (* Answers after the swap are byte-identical to a fresh compile of
     the evolved schema — same discipline as the round-trip test. *)
  let evolved =
    match Mc_io.Parse.deltas_of_string nb delta_text with
    | Ok (_, nb') -> nb'
    | Error e ->
      Alcotest.fail
        ("delta text does not parse: " ^ Runtime.Errors.to_string e)
  in
  let expected =
    let compiled = Minconn.Compiled.compile evolved.Mc_io.Parse.graph in
    let session = Minconn.Session.create compiled in
    let p =
      match Mc_io.Parse.name_set evolved [ "A"; "C" ] with
      | Ok p -> p
      | Error _ -> Alcotest.fail "name_set"
    in
    match Minconn.Session.query session ~p with
    | Ok s -> Serve.Render.solution_block evolved s
    | Error _ -> Alcotest.fail "direct query on evolved schema failed"
  in
  let after = post fd conn "A,C" in
  check_int "post-swap solve" 200 after.Http.code;
  check_str "post-swap answer matches evolved compile" expected
    after.Http.resp_body;
  (* The keep-alive connection above already resynced; a fresh
     connection must see the evolved schema too. *)
  let fd2 = connect port in
  let conn2 = Http.conn fd2 in
  let fresh = post fd2 conn2 "A,C" in
  check_str "fresh connection sees evolved schema" expected
    fresh.Http.resp_body;
  Unix.close fd2;
  Unix.close fd;
  check_int "deltas counted" 1 (counter metrics "serve.deltas")

(* Name resolution follows the schema of record: a relation added by a
   delta resolves on the next request, and once removed the request
   gets the 400 it got before the relation existed. A published name
   index is never mutated, so a state captured before a delta keeps
   resolving its own names. *)
let test_delta_names () =
  with_server @@ fun nb srv _ ->
  let fd = connect (Server.port srv) in
  let conn = Http.conn fd in
  let unknown = post fd conn "A,9" in
  check_int "unknown before the delta" 400 unknown.Http.code;
  send fd (request ~path:"/schema/delta" "deltas\n+relation 9 A C\n");
  check_int "+relation applied" 200 (recv conn).Http.code;
  let added = post fd conn "A,9" in
  check_int "new relation resolves" 200 added.Http.code;
  check "answer names it" true
    (List.mem "  A -- 9"
       (String.split_on_char '\n' added.Http.resp_body));
  send fd (request ~path:"/schema/delta" "deltas\n-relation 9\n");
  check_int "-relation applied" 200 (recv conn).Http.code;
  let removed = post fd conn "A,9" in
  check_int "removed relation is 400 again" 400 removed.Http.code;
  check_str "same body as before the delta" unknown.Http.resp_body
    removed.Http.resp_body;
  Unix.close fd;
  let evolve nb text =
    match Mc_io.Parse.deltas_of_string nb text with
    | Ok (_, nb') -> nb'
    | Error e -> Alcotest.fail (Runtime.Errors.to_string e)
  in
  let ix0 = Mc_io.Parse.index nb in
  let nb1 = evolve nb "deltas\n+relation 9 A C\n-relation 1\n" in
  let ix1 = Mc_io.Parse.reindex ix0 nb1 in
  let resolves ix names = Result.is_ok (Mc_io.Parse.resolve ix names) in
  check "old state still resolves 1" true (resolves ix0 [ "A"; "1" ]);
  check "old state does not know 9" false (resolves ix0 [ "9" ]);
  check "new state resolves 9" true (resolves ix1 [ "A"; "9" ]);
  check "new state dropped 1" false (resolves ix1 [ "1" ]);
  check "both agree with the scan" true
    (Mc_io.Parse.resolve ix0 [ "B"; "3" ] = Mc_io.Parse.name_set nb [ "B"; "3" ]
    && Mc_io.Parse.resolve ix1 [ "B"; "3"; "9" ]
       = Mc_io.Parse.name_set nb1 [ "B"; "3"; "9" ])

(* -------------------------------------------------------- overload *)

let test_overload_sheds_fast () =
  let config =
    {
      Server.default_config with
      Server.max_inflight = 2;
      degrade_watermark = 100;
      io_timeout_ms = 5_000;
    }
  in
  with_server ~config @@ fun _nb srv metrics ->
  let port = Server.port srv in
  (* Two idle keep-alive connections pin the inflight count at the
     admission cap. *)
  let a = connect port and b = connect port in
  await "inflight to reach the cap" (fun () -> Server.inflight srv >= 2);
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Unix.gettimeofday () in
    let fd = connect port in
    let conn = Http.conn fd in
    let r = recv conn in
    let dt_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    if dt_ms < !best then best := dt_ms;
    check_int "excess connection is shed with 503" 503 r.Http.code;
    check_str "typed overloaded header" "overloaded"
      (Option.value ~default:"?" (hdr r "x-minconn-error"));
    Unix.close fd
  done;
  if not (!best < 10.0) then
    Alcotest.failf "shed latency %.2fms, admission bound is 10ms" !best;
  check "shed counted" true (counter metrics "serve.shed" >= 5);
  Unix.close a;
  Unix.close b

(* ------------------------------------------- watermark degradation *)

let test_degrade_under_pressure () =
  (* watermark 0: every request runs in pressure mode; fuel 1 forces
     the ladder down to the MST rung. *)
  let config =
    {
      Server.default_config with
      Server.degrade_watermark = 0;
      pressure_fuel = 1;
    }
  in
  with_server ~config @@ fun _nb srv metrics ->
  let fd = connect (Server.port srv) in
  let conn = Http.conn fd in
  let r = post fd conn "A B C" in
  check_int "pressured query still answers" 200 r.Http.code;
  check_str "degraded provenance" "true"
    (Option.value ~default:"?" (hdr r "x-minconn-degraded"));
  check_str "ladder rung named" "mst-approx"
    (Option.value ~default:"?" (hdr r "x-minconn-rung"));
  check_str "pressure mode named" "high"
    (Option.value ~default:"?" (hdr r "x-minconn-pressure"));
  check_str "degraded exit code" "2"
    (Option.value ~default:"?" (hdr r "x-minconn-code"));
  Unix.close fd;
  check "degraded counted" true (counter metrics "serve.degraded" >= 1)

let test_normal_not_degraded () =
  with_server @@ fun _nb srv _metrics ->
  let fd = connect (Server.port srv) in
  let conn = Http.conn fd in
  let r = post fd conn "A B C" in
  check_int "status" 200 r.Http.code;
  check_str "exact under no pressure" "false"
    (Option.value ~default:"?" (hdr r "x-minconn-degraded"));
  check "no pressure header" true (hdr r "x-minconn-pressure" = None);
  Unix.close fd

(* ------------------------------------------------- fault injection *)

let test_handler_crash_survives () =
  with_server @@ fun _nb srv metrics ->
  let port = Server.port srv in
  Fault.arm_op ~op:"serve.handler" ~times:1 ();
  Fun.protect ~finally:(fun () -> Fault.disarm_op ~op:"serve.handler")
  @@ fun () ->
  let fd = connect port in
  let conn = Http.conn fd in
  let r = post fd conn "A B" in
  check_int "poisoned handler answers 500" 500 r.Http.code;
  check_str "typed internal error" "internal"
    (Option.value ~default:"?" (hdr r "x-minconn-error"));
  Unix.close fd;
  (* the listener survives: a fresh connection gets a real answer *)
  let fd2 = connect port in
  let conn2 = Http.conn fd2 in
  let r2 = post fd2 conn2 "A B" in
  check_int "listener still serving after crash" 200 r2.Http.code;
  Unix.close fd2;
  check "error counted" true (counter metrics "serve.errors" >= 1)

let test_torn_client_survives () =
  with_server @@ fun _nb srv metrics ->
  let port = Server.port srv in
  (* promise a 10-byte body, send 3, hang up *)
  let fd = connect port in
  send fd "POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: 10\r\n\r\nA B";
  Unix.close fd;
  await "torn read to be counted" (fun () -> counter metrics "serve.errors" >= 1);
  let fd2 = connect port in
  let conn2 = Http.conn fd2 in
  let r = post fd2 conn2 "A B" in
  check_int "listener still serving after torn client" 200 r.Http.code;
  Unix.close fd2

(* --------------------------------------- size caps and reaping *)

let test_body_too_large () =
  let config = { Server.default_config with Server.max_body_bytes = 128 } in
  with_server ~config @@ fun _nb srv _metrics ->
  let fd = connect (Server.port srv) in
  let conn = Http.conn fd in
  send fd (request (String.make 300 'A'));
  let r = recv conn in
  check_int "oversized body is 413" 413 r.Http.code;
  check_str "typed too-large header" "too-large"
    (Option.value ~default:"?" (hdr r "x-minconn-error"));
  Unix.close fd

let test_stalled_client_reaped () =
  let config = { Server.default_config with Server.io_timeout_ms = 80 } in
  with_server ~config @@ fun _nb srv metrics ->
  let fd = connect (Server.port srv) in
  let conn = Http.conn fd in
  (* send nothing: the read deadline must fire and answer 408 *)
  let r = recv conn in
  check_int "stalled client reaped with 408" 408 r.Http.code;
  Unix.close fd;
  check "reap counted" true (counter metrics "serve.reaped" >= 1)

let test_epipe_counted () =
  with_server @@ fun _nb srv metrics ->
  let port = Server.port srv in
  (* RST-close right after sending the request so the server's
     response write hits a dead peer. The race against a fast solver
     is real, hence the retry loop; one hit is enough. *)
  let rec attempt n =
    if n = 0 then Alcotest.fail "no EPIPE recorded in 50 attempts"
    else begin
      let fd = connect port in
      send fd (request "A B C");
      Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
      Unix.close fd;
      Thread.delay 0.005;
      if counter metrics "serve.epipe" = 0 then attempt (n - 1)
    end
  in
  attempt 50

(* ----------------------------------------------------------- drain *)

let test_graceful_drain_forces_stragglers () =
  let config =
    {
      Server.default_config with
      Server.drain_timeout_ms = 100;
      io_timeout_ms = 5_000;
    }
  in
  let nb = fig3b () in
  let metrics = Metrics.make () in
  match Server.create ~config ~metrics nb with
  | Error msg -> Alcotest.fail msg
  | Ok srv ->
    let th = Server.start srv in
    let fd = connect (Server.port srv) in
    await "connection to be admitted" (fun () -> Server.inflight srv >= 1);
    Server.stop srv;
    Thread.join th;
    check_int "all connections released after drain" 0 (Server.inflight srv);
    check "straggler force-closed and counted" true
      (counter metrics "serve.drain_forced" >= 1);
    Unix.close fd

(* -------------------------------------------- CLI SIGPIPE satellite *)

let test_cli_broken_pipe_is_typed_exit () =
  if not (Sys.file_exists cli) then Alcotest.fail ("CLI not found at " ^ cli);
  (* stdout is a pipe whose read end is already closed: the first
     flush past the channel buffer hits EPIPE. The process must exit
     with the typed input-error code, not die on SIGPIPE. *)
  let r, w = Unix.pipe () in
  Unix.close r;
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "generate"; "-c"; "gnp"; "-n"; "300" |]
      Unix.stdin w dev_null
  in
  Unix.close w;
  Unix.close dev_null;
  let _, status = Unix.waitpid [] pid in
  match status with
  | Unix.WEXITED 4 -> ()
  | Unix.WEXITED c -> Alcotest.failf "expected exit 4, got exit %d" c
  | Unix.WSIGNALED s -> Alcotest.failf "killed by signal %d (SIGPIPE leak?)" s
  | Unix.WSTOPPED s -> Alcotest.failf "stopped by signal %d" s

let () =
  Alcotest.run "serve"
    [
      ( "round-trip",
        [
          Alcotest.test_case "solve round trip" `Quick test_round_trip;
          Alcotest.test_case "observability endpoints" `Quick test_endpoints;
          Alcotest.test_case "schema delta hot-swap" `Quick test_schema_delta;
          Alcotest.test_case "delta names resolve" `Quick test_delta_names;
        ] );
      ( "overload",
        [
          Alcotest.test_case "excess load shed under 10ms" `Quick
            test_overload_sheds_fast;
          Alcotest.test_case "watermark degrades with provenance" `Quick
            test_degrade_under_pressure;
          Alcotest.test_case "no pressure, no degradation" `Quick
            test_normal_not_degraded;
        ] );
      ( "faults",
        [
          Alcotest.test_case "handler crash poisons one connection" `Quick
            test_handler_crash_survives;
          Alcotest.test_case "torn client read survives" `Quick
            test_torn_client_survives;
          Alcotest.test_case "oversized body is typed 413" `Quick
            test_body_too_large;
          Alcotest.test_case "stalled client reaped" `Quick
            test_stalled_client_reaped;
          Alcotest.test_case "dead peer counted as epipe" `Quick
            test_epipe_counted;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "graceful drain forces stragglers" `Quick
            test_graceful_drain_forces_stragglers;
          Alcotest.test_case "broken pipe exits typed, not signaled" `Quick
            test_cli_broken_pipe_is_typed_exit;
        ] );
    ]
