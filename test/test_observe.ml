(* The observability layer: span mechanics under a fake clock, the
   disabled fast path, metric instruments, export validators, and the
   spans the solver ladder actually emits. *)

module Trace = Observe.Trace
module Metrics = Observe.Metrics
module Export = Observe.Export
module Json = Observe.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --------------------------------------------------------- tracing *)

let fake_clock () =
  let t = ref 0.0 in
  let clock () = !t in
  let advance d = t := !t +. d in
  (clock, advance)

let test_span_tree () =
  let clock, advance = fake_clock () in
  let tr = Trace.make ~clock () in
  check "recording trace is active" true (Trace.active tr);
  let result =
    Trace.span tr "outer" ~attrs:[ ("k", Trace.Int 7) ] (fun () ->
        advance 1.0;
        Trace.span tr "inner" (fun () ->
            advance 0.5;
            Trace.add_attr tr "leaf" (Trace.Bool true));
        advance 0.25;
        42)
  in
  check_int "span body's value is returned" 42 result;
  check_int "two spans recorded" 2 (Trace.span_count tr);
  match Trace.spans tr with
  | [ outer; inner ] ->
    check "outer is a root span" true (outer.Trace.parent = 0);
    check_int "inner nests under outer" outer.Trace.id inner.Trace.parent;
    check "outer starts at the epoch" true (outer.Trace.start_s = 0.0);
    check "inner starts after the first advance" true
      (inner.Trace.start_s = 1.0);
    check "inner lasted 0.5s" true (inner.Trace.dur_s = 0.5);
    check "outer lasted 1.75s" true (outer.Trace.dur_s = 1.75);
    check "declared attr preserved" true
      (Trace.find_attr outer "k" = Some (Trace.Int 7));
    check "add_attr reached the innermost open span" true
      (Trace.find_attr inner "leaf" = Some (Trace.Bool true))
  | _ -> Alcotest.fail "expected exactly two spans"

let test_event () =
  let clock, advance = fake_clock () in
  let tr = Trace.make ~clock () in
  Trace.span tr "parent" (fun () ->
      advance 2.0;
      Trace.event tr "decision" ~attrs:[ ("why", Trace.Str "because") ]);
  match Trace.spans tr with
  | [ parent; ev ] ->
    check "event is parented" true (ev.Trace.parent = parent.Trace.id);
    check "event has zero duration" true (ev.Trace.dur_s = 0.0);
    check "event keeps its attrs" true
      (Trace.find_attr ev "why" = Some (Trace.Str "because"))
  | _ -> Alcotest.fail "expected parent + event"

let test_disabled_trace () =
  let tr = Trace.disabled in
  check "disabled trace is inactive" false (Trace.active tr);
  let r = Trace.span tr "ghost" (fun () -> 9) in
  check_int "body still runs under the disabled trace" 9 r;
  Trace.add_attr tr "x" (Trace.Int 1);
  Trace.event tr "nothing";
  check_int "nothing was recorded" 0 (Trace.span_count tr)

let test_span_exception () =
  let tr = Trace.make ~clock:(fun () -> 0.0) () in
  (try Trace.span tr "boom" (fun () -> failwith "kaput")
   with Failure _ -> ());
  match Trace.spans tr with
  | [ s ] ->
    check "span closed despite the raise" true (s.Trace.dur_s >= 0.0);
    check "exception recorded as an attribute" true
      (match Trace.find_attr s "raised" with
      | Some (Trace.Str _) -> true
      | _ -> false)
  | _ -> Alcotest.fail "expected the raising span to be recorded"

(* --------------------------------------------------------- metrics *)

let test_counters () =
  let m = Metrics.make () in
  let c = Metrics.counter m "steps" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check_int "counter accumulates" 5 (Metrics.count c);
  let again = Metrics.counter m "steps" in
  Metrics.incr again;
  check_int "find-or-create shares the instrument" 6 (Metrics.count c);
  check "registry snapshot in creation order" true
    (Metrics.counters m = [ ("steps", 6) ])

let test_histograms () =
  let m = Metrics.make () in
  let h = Metrics.histogram m ~bounds:[| 1.0; 10.0; 100.0 |] "sizes" in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0; 5000.0 ];
  check "bucket placement" true
    (Metrics.hist_buckets h = [| 1; 1; 1; 1 |]);
  check "sum tracks observations" true (Metrics.hist_sum h = 5055.5);
  check_int "event count" 4 (Metrics.hist_events h);
  check "overflow bucket appended" true
    (Array.length (Metrics.hist_buckets h)
    = Array.length (Metrics.hist_bounds h) + 1)

let test_disabled_metrics () =
  let m = Metrics.disabled in
  check "disabled registry inactive" false (Metrics.active m);
  let c = Metrics.counter m "anything" in
  Metrics.incr ~by:100 c;
  check_int "inert counter never moves" 0 (Metrics.count c);
  check "inert counter is the shared instance" true (c == Metrics.inert);
  let h = Metrics.histogram m "anything" in
  Metrics.observe h 3.0;
  check_int "inert histogram records nothing" 0 (Metrics.hist_events h);
  check "disabled registry stays empty" true (Metrics.counters m = [])

(* ---------------------------------------------------------- export *)

let test_export_roundtrip () =
  let clock, advance = fake_clock () in
  let tr = Trace.make ~clock () in
  Trace.span tr "a" ~attrs:[ ("s", Trace.Str "q\"uote") ] (fun () ->
      advance 0.001;
      Trace.event tr "b");
  let ndjson = Export.trace_ndjson tr in
  (match Export.validate_ndjson_string ndjson with
  | Ok n -> check_int "every span line validates" 2 n
  | Error e -> Alcotest.fail ("trace validation: " ^ e));
  let m = Metrics.make () in
  Metrics.incr (Metrics.counter m "c1");
  Metrics.observe (Metrics.histogram m "h1") 3.0;
  (match Export.validate_metrics_string (Export.metrics_json m) with
  | Ok n -> check_int "counter + histogram counted" 2 n
  | Error e -> Alcotest.fail ("metrics validation: " ^ e));
  check "empty trace is rejected" true
    (match Export.validate_ndjson_string "" with Error _ -> true | Ok _ -> false);
  check "garbage line is rejected" true
    (match Export.validate_ndjson_string "{\"type\":\"nope\"}" with
    | Error _ -> true
    | Ok _ -> false);
  check "malformed metrics are rejected" true
    (match Export.validate_metrics_string "{\"schema\":\"other\"}" with
    | Error _ -> true
    | Ok _ -> false)

let test_json_parse () =
  let j = Json.parse_exn {| {"a": [1, true, null, "x\n"], "b": -2.5e1} |} in
  check "member lookup" true
    (match Json.member "b" j with Some (Json.Jnum f) -> f = -25.0 | _ -> false);
  check "array and escapes survive" true
    (match Json.member "a" j with
    | Some (Json.Jarr [ Json.Jnum 1.0; Json.Jbool true; Json.Jnull; Json.Jstr "x\n" ])
      ->
      true
    | _ -> false);
  check "unterminated input is an error" true
    (match Json.parse "{\"a\": [1," with Error _ -> true | Ok _ -> false)

(* ------------------------------------------- solver instrumentation *)

let span_names tr = List.map (fun s -> s.Trace.name) (Trace.spans tr)

let test_solver_spans () =
  let g = Minconn.Figures.fig2.Minconn.Figures.graph in
  let p = Minconn.Iset.of_list [ 0; 2 ] in
  let tr = Trace.make () in
  let m = Metrics.make () in
  (match Minconn.solve ~trace:tr ~metrics:m g ~p with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "fig2 is solvable");
  let names = span_names tr in
  let has n = List.mem n names in
  check "root solve span" true (has "solve");
  check "classification span" true (has "classify");
  check "exact DP rung span" true (has "rung:exact-dp");
  check "ladder outcome event" true (has "ladder.ran");
  check "verify span present when tracing" true (has "verify");
  (match
     List.find_opt (fun s -> s.Trace.name = "verify") (Trace.spans tr)
   with
  | Some s ->
    check "verify confirms terminal coverage" true
      (Trace.find_attr s "covers_terminals" = Some (Trace.Bool true))
  | None -> Alcotest.fail "verify span missing");
  check "all spans closed with a timing" true
    (List.for_all (fun s -> s.Trace.dur_s >= 0.0) (Trace.spans tr))

(* Every abandoned rung must leave a span with an outcome and an
   abandonment reason, plus a ladder.abandon event — this is the
   acceptance bar for the degradation ladder's observability. *)
let test_ladder_abandon_spans () =
  let g = Minconn.Figures.fig2.Minconn.Figures.graph in
  let p = Minconn.Iset.of_list [ 0; 2 ] in
  let tr = Trace.make () in
  let m = Metrics.make () in
  let budget = Minconn.Budget.make ~fuel:2 () in
  (match Minconn.solve ~budget ~trace:tr ~metrics:m g ~p with
  | Ok s ->
    check "fuel 2 forces degradation" true
      (Minconn.Degrade.degraded s.Minconn.provenance)
  | Error e -> Alcotest.fail (Minconn.Errors.to_string e));
  let spans = Trace.spans tr in
  let rungs =
    List.filter
      (fun s ->
        String.length s.Trace.name > 5
        && String.sub s.Trace.name 0 5 = "rung:")
      spans
  in
  check "several rungs attempted" true (List.length rungs >= 2);
  List.iter
    (fun s ->
      check ("rung span timed: " ^ s.Trace.name) true (s.Trace.dur_s >= 0.0);
      match Trace.find_attr s "outcome" with
      | Some (Trace.Str "ran") -> ()
      | Some (Trace.Str _) ->
        check ("abandoned rung has a reason: " ^ s.Trace.name) true
          (match Trace.find_attr s "reason" with
          | Some (Trace.Str _) -> true
          | _ -> false)
      | _ -> Alcotest.fail ("rung span without outcome: " ^ s.Trace.name))
    rungs;
  let abandons =
    List.filter (fun s -> s.Trace.name = "ladder.abandon") spans
  in
  check "structured abandon events emitted" true (List.length abandons >= 1);
  List.iter
    (fun s ->
      check "abandon event names its rung" true
        (match Trace.find_attr s "rung" with
        | Some (Trace.Str _) -> true
        | _ -> false))
    abandons;
  check "budget checks were counted" true
    (List.assoc "budget.checks" (Metrics.counters m) > 0);
  check "abandonments were counted" true
    (List.assoc "rung.abandonments" (Metrics.counters m) > 0)

let test_solver_disabled_records_nothing () =
  let g = Minconn.Figures.fig2.Minconn.Figures.graph in
  let p = Minconn.Iset.of_list [ 0; 2 ] in
  (* The default-arg path: no trace, no metrics, same answer. *)
  match
    ( Minconn.solve g ~p,
      Minconn.solve ~trace:Trace.disabled ~metrics:Metrics.disabled g ~p )
  with
  | Ok a, Ok b ->
    check "instrumented-off solve agrees" true
      (a.Minconn.method_used = b.Minconn.method_used);
    check_int "disabled trace stayed empty" 0
      (Trace.span_count Trace.disabled)
  | _ -> Alcotest.fail "fig2 is solvable"

(* ------------------------------------------------ fork and atomics *)

(* [fork]/[merge] as the server uses them per request: a fork's spans
   are renumbered after the parent's and re-parented under its open
   span. *)
let test_trace_fork_merge () =
  let now = ref 0.0 in
  let clock () =
    now := !now +. 1.0;
    !now
  in
  let t = Trace.make ~clock () in
  Trace.span t "root" (fun () ->
      let f1 = Trace.fork t in
      let f2 = Trace.fork t in
      Trace.span f1 "task0" (fun () -> Trace.event f1 "task0.event");
      Trace.span f2 "task1" (fun () -> ());
      Trace.merge t f1;
      Trace.merge t f2);
  let shape =
    List.map (fun s -> (s.Trace.id, s.Trace.parent, s.Trace.name)) (Trace.spans t)
  in
  check "merged shape: ids renumbered, roots re-parented" true
    (shape
    = [ (1, 0, "root"); (2, 1, "task0"); (3, 2, "task0.event"); (4, 1, "task1") ]);
  check "fork of disabled is disabled" true
    (not (Trace.active (Trace.fork Trace.disabled)))

let test_metrics_atomic () =
  let m = Metrics.make () in
  let c = Metrics.counter m "hits" in
  let bump () =
    for _ = 1 to 1000 do
      Metrics.incr c
    done
  in
  List.iter Domain.join (List.init 4 (fun _ -> Domain.spawn bump));
  bump ();
  check_int "no increments lost across domains" 5000 (Metrics.count c)

let () =
  Alcotest.run "observe"
    [
      ( "trace",
        [
          Alcotest.test_case "span tree" `Quick test_span_tree;
          Alcotest.test_case "event" `Quick test_event;
          Alcotest.test_case "disabled" `Quick test_disabled_trace;
          Alcotest.test_case "exception" `Quick test_span_exception;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "histograms" `Quick test_histograms;
          Alcotest.test_case "disabled" `Quick test_disabled_metrics;
        ] );
      ( "export",
        [
          Alcotest.test_case "roundtrip" `Quick test_export_roundtrip;
          Alcotest.test_case "json parser" `Quick test_json_parse;
        ] );
      ( "solver",
        [
          Alcotest.test_case "rung spans" `Quick test_solver_spans;
          Alcotest.test_case "ladder abandon" `Quick test_ladder_abandon_spans;
          Alcotest.test_case "disabled path" `Quick
            test_solver_disabled_records_nothing;
        ] );
      ( "observe",
        [
          Alcotest.test_case "trace fork/merge" `Quick test_trace_fork_merge;
          Alcotest.test_case "atomic counters" `Quick test_metrics_atomic;
        ] );
    ]
