(* The resource-governed runtime: budgets, the degradation ladder, the
   typed error boundary, and the deterministic fault-injection harness.

   The fault matrix drives every rung of the ladder — as the rung that
   produced the answer and as an abandoned attempt — asserting the
   recorded provenance, the exit-code mapping, and validity of the
   returned tree in each cell. *)

open Graphs
open Bipartite
open Steiner

module Budget = Runtime.Budget
module Degrade = Runtime.Degrade
module Errors = Runtime.Errors
module Fault = Runtime.Fault

let check = Alcotest.(check bool)

let seed_of ~section t =
  (* Fault seeds derive from the shared trial stream so a given test
     case injects the same trace run to run. *)
  Workloads.Rng.int (Workloads.Rng.for_trial ~section ~trial:t) 1_000_000

(* A connected instance outside every structured class with more
   terminals than the exact DP accepts: all nodes are terminals. *)
let over_cap_instance () =
  let rec find seed =
    if seed > 200 then Alcotest.fail "no over-cap instance found"
    else
      let rng = Workloads.Rng.for_trial ~section:"runtime-overcap" ~trial:seed in
      let g = Workloads.Gen_bipartite.gnp rng ~nl:12 ~nr:12 ~p:0.4 in
      let u = Bigraph.ugraph g in
      let p = Ugraph.nodes u in
      let profile = Classify.profile g in
      if
        Traverse.connects u p
        && (not profile.Classify.chordal_41)
        && (not profile.Classify.chordal_62)
        && Iset.cardinal p > Dreyfus_wagner.max_terminals
      then (g, u, p)
      else find (seed + 1)
  in
  find 0

(* A connected instance outside the structured classes with few
   terminals, so the unfaulted ladder starts at the exact DP. *)
let dp_instance () =
  let g = Minconn.Figures.fig2.Minconn.Figures.graph in
  let p = Iset.of_list [ 0; 2 ] in
  (g, Bigraph.ugraph g, p)

let solution_ok u ~p (s : Minconn.solution) =
  Tree.verify u ~terminals:p s.Minconn.tree

(* ------------------------------------------------- acceptance: X3C *)

(* The Theorem-2 gadget with 3q+1 = 16 terminals sits under the DP cap
   but far over a 50 ms deadline: the solver must come back quickly
   with a valid degraded cover and honest provenance instead of
   hanging in the subset DP. *)
let test_x3c_deadline () =
  let rng = Workloads.Rng.for_trial ~section:"runtime-x3c" ~trial:0 in
  let inst = Workloads.Gen_x3c.planted rng ~q:5 ~distractors:5 in
  let red = Reductions.theorem2 inst in
  let g = red.Reductions.graph in
  let p = red.Reductions.terminals in
  check "gadget under the DP terminal cap" true
    (Iset.cardinal p <= Dreyfus_wagner.max_terminals);
  let t0 = Unix.gettimeofday () in
  let budget = Minconn.Budget.make ~timeout_ms:50 () in
  (match Minconn.solve ~budget g ~p with
  | Error e -> Alcotest.failf "expected degraded solve, got %s" (Errors.to_string e)
  | Ok s ->
    check "tree valid" true (solution_ok (Bigraph.ugraph g) ~p s);
    check "degraded" true (Minconn.Degrade.degraded s.Minconn.provenance);
    check "not reported optimal" false s.Minconn.optimal;
    (match s.Minconn.provenance.Degrade.attempts with
    | { Degrade.rung = Errors.Exact_dp; why = Degrade.Timeout } :: _ -> ()
    | _ -> Alcotest.fail "first attempt should be the timed-out exact DP"));
  let elapsed = Unix.gettimeofday () -. t0 in
  (* Generous wall-clock bound: the point is "milliseconds, not the
     minutes the 2^16-mask DP would take". *)
  check "came back promptly" true (elapsed < 5.0)

(* With degradation disabled the same instance is a typed error with
   exit code 5, and the internal signal never escapes. *)
let test_x3c_no_degrade () =
  let rng = Workloads.Rng.for_trial ~section:"runtime-x3c" ~trial:1 in
  let inst = Workloads.Gen_x3c.planted rng ~q:5 ~distractors:5 in
  let red = Reductions.theorem2 inst in
  let budget = Minconn.Budget.make ~timeout_ms:50 () in
  match
    Minconn.solve ~budget ~degrade:false red.Reductions.graph
      ~p:red.Reductions.terminals
  with
  | Error (Errors.Budget_exhausted Errors.Exact_dp as e) ->
    check "exit code 5" true (Errors.exit_code e = 5)
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "50ms cannot finish the 16-terminal DP"

(* ------------------------------------------------- the fault matrix *)

(* Rung ran = Exact_structured (forest path), nothing abandoned. *)
let test_rung_exact_structured () =
  let g = Minconn.Figures.fig3a.Minconn.Figures.graph in
  let p = Iset.of_list [ 0; 3 ] in
  match Minconn.solve g ~p with
  | Ok s ->
    check "ran forest rung" true
      (s.Minconn.provenance.Degrade.ran = Errors.Exact_structured);
    check "no attempts" true (s.Minconn.provenance.Degrade.attempts = []);
    check "exact" true (s.Minconn.provenance.Degrade.guarantee = Degrade.Exact);
    check "not degraded" false (Degrade.degraded s.Minconn.provenance)
  | Error e -> Alcotest.failf "unexpected: %s" (Errors.to_string e)

(* The forest rung makes no budget check, so it is the whole (4,1)
   ladder: an empty fuel tank and a fault armed at the first check
   leave the answer exact, with nothing abandoned. *)
let test_forest_rung_unbudgeted () =
  let g = Minconn.Figures.fig3a.Minconn.Figures.graph in
  let p = Iset.of_list [ 0; 3 ] in
  let budget = Minconn.Budget.make ~fuel:0 () in
  let result =
    Fault.with_plan
      ~arm:(fun () -> Fault.arm_after ~checks:0 ~reason:Errors.Fuel)
      (fun () -> Minconn.solve ~budget g ~p)
  in
  match result with
  | Ok s ->
    check "ran forest rung" true
      (s.Minconn.provenance.Degrade.ran = Errors.Exact_structured);
    check "no attempts" true (s.Minconn.provenance.Degrade.attempts = []);
    check "forest method" true (s.Minconn.method_used = Minconn.Used_forest);
    check "tree valid" true (solution_ok (Bigraph.ugraph g) ~p s)
  | Error e -> Alcotest.failf "unexpected: %s" (Errors.to_string e)

(* Rung ran = Exact_dp, nothing abandoned. *)
let test_rung_exact_dp () =
  let g, u, p = dp_instance () in
  match Minconn.solve g ~p with
  | Ok s ->
    check "ran exact DP rung" true
      (s.Minconn.provenance.Degrade.ran = Errors.Exact_dp);
    check "tree valid" true (solution_ok u ~p s);
    check "exact" true s.Minconn.optimal
  | Error e -> Alcotest.failf "unexpected: %s" (Errors.to_string e)

(* Rung ran = Fixpoint after the DP was skipped over the terminal cap:
   the pre-attempt provenance says so instead of a silent
   optimal=false. *)
let test_rung_fixpoint_over_cap () =
  let g, u, p = over_cap_instance () in
  match Minconn.solve g ~p with
  | Ok s ->
    check "ran fixpoint rung" true
      (s.Minconn.provenance.Degrade.ran = Errors.Fixpoint);
    check "over-cap attempt recorded" true
      (s.Minconn.provenance.Degrade.attempts
      = [ { Degrade.rung = Errors.Exact_dp; why = Degrade.Terminals_over_cap } ]);
    check "heuristic guarantee" true
      (s.Minconn.provenance.Degrade.guarantee = Degrade.Heuristic);
    check "degraded (exit 2 condition)" true
      (Degrade.degraded s.Minconn.provenance);
    check "tree valid" true (solution_ok u ~p s)
  | Error e -> Alcotest.failf "unexpected: %s" (Errors.to_string e)

(* Rung ran = Mst after fault-injected exhaustion kills both budgeted
   rungs; the un-budgeted approximation still answers, with the whole
   descent recorded. *)
let test_rung_mst_after_faults reason () =
  let g, u, p = dp_instance () in
  let budget = Minconn.Budget.make () in
  let result =
    Fault.with_plan
      ~arm:(fun () -> Fault.arm_after ~checks:3 ~reason)
      (fun () -> Minconn.solve ~budget g ~p)
  in
  match result with
  | Ok s ->
    let why = Degrade.reason_of_stop reason in
    check "ran MST rung" true (s.Minconn.provenance.Degrade.ran = Errors.Mst);
    check "both budgeted rungs abandoned" true
      (s.Minconn.provenance.Degrade.attempts
      = [
          { Degrade.rung = Errors.Exact_dp; why };
          { Degrade.rung = Errors.Fixpoint; why };
        ]);
    check "ratio guarantee" true
      (s.Minconn.provenance.Degrade.guarantee = Degrade.Ratio 2.0);
    check "tree valid" true (solution_ok u ~p s)
  | Error e -> Alcotest.failf "unexpected: %s" (Errors.to_string e)

(* Abandoning the structured rung: fault the Algorithm-2 fixpoint on a
   (6,2)-chordal instance mid-elimination. *)
let test_rung_structured_abandoned () =
  let g = Minconn.Figures.fig3b.Minconn.Figures.graph in
  (* The seed A-1-B ∪ A-2-C leaves two candidates, 1 and 2: 1 goes,
     then 2 is checked on both passes — three checks. *)
  let p = Iset.of_list [ 0; 1; 2 ] in
  let budget = Minconn.Budget.make () in
  let result =
    Fault.with_plan
      ~arm:(fun () -> Fault.arm_after ~checks:1 ~reason:Errors.Fuel)
      (fun () -> Minconn.solve ~budget g ~p)
  in
  match result with
  | Ok s ->
    check "fell to MST" true (s.Minconn.provenance.Degrade.ran = Errors.Mst);
    check "structured rung abandoned on fuel" true
      (s.Minconn.provenance.Degrade.attempts
      = [ { Degrade.rung = Errors.Exact_structured; why = Degrade.Fuel } ]);
    check "tree valid" true (solution_ok (Bigraph.ugraph g) ~p s)
  | Error e -> Alcotest.failf "unexpected: %s" (Errors.to_string e)

(* ~degrade:false surfaces the first exhausted rung as a typed error. *)
let test_no_degrade_error () =
  let g, _, p = dp_instance () in
  let budget = Minconn.Budget.make () in
  let result =
    Fault.with_plan
      ~arm:(fun () -> Fault.arm_after ~checks:0 ~reason:Errors.Timeout)
      (fun () -> Minconn.solve ~budget ~degrade:false g ~p)
  in
  match result with
  | Error (Errors.Budget_exhausted Errors.Exact_dp as e) ->
    check "exit code 5" true (Errors.exit_code e = 5)
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "fault at check 0 must exhaust the DP"

(* Probabilistic injection is deterministic in the seed: identical
   plans yield identical descents. *)
let test_probabilistic_determinism () =
  let g, _, p = dp_instance () in
  let seed = seed_of ~section:"runtime-prob" 0 in
  let run () =
    let budget = Minconn.Budget.make () in
    Fault.with_plan
      ~arm:(fun () -> Fault.arm ~seed ~p:0.05 ~reason:Errors.Fuel)
      (fun () -> Minconn.solve ~budget g ~p)
  in
  match (run (), run ()) with
  | Ok a, Ok b ->
    check "same rung ran" true
      (a.Minconn.provenance.Degrade.ran = b.Minconn.provenance.Degrade.ran);
    check "same attempts" true
      (a.Minconn.provenance.Degrade.attempts
      = b.Minconn.provenance.Degrade.attempts);
    check "same tree" true
      (Iset.equal a.Minconn.tree.Tree.nodes b.Minconn.tree.Tree.nodes)
  | Error ea, Error eb ->
    check "same error" true (ea = eb)
  | _ -> Alcotest.fail "runs with the same seed diverged"

(* Fuel-only budgets exhaust deterministically too (no clock
   involved): same fuel, same descent, twice. *)
let test_fuel_determinism () =
  let g, _, p = dp_instance () in
  let run () = Minconn.solve ~budget:(Minconn.Budget.make ~fuel:3 ()) g ~p in
  match (run (), run ()) with
  | Ok a, Ok b ->
    check "fuel exhaustion recorded" true
      (List.exists
         (fun at -> at.Degrade.why = Degrade.Fuel)
         a.Minconn.provenance.Degrade.attempts);
    check "same descent" true
      (a.Minconn.provenance.Degrade.attempts
      = b.Minconn.provenance.Degrade.attempts)
  | _ -> Alcotest.fail "fuel-bounded runs must both solve via the MST rung"

(* ------------------------------------- cancellation leaves no residue *)

(* The elimination fixpoint is purely functional: killing it
   mid-elimination and re-running unfaulted must give exactly the
   fresh answer. *)
let test_cancellation_clean_rerun () =
  let g = Minconn.Figures.fig3b.Minconn.Figures.graph in
  let u = Bigraph.ugraph g in
  (* Three checks, as in [test_rung_structured_abandoned]. *)
  let p = Iset.of_list [ 0; 1; 2 ] in
  let budget = Budget.make () in
  let interrupted =
    Fault.with_plan
      ~arm:(fun () -> Fault.arm_after ~checks:2 ~reason:Errors.Fuel)
      (fun () -> Budget.protect budget (fun () -> Algorithm2.solve ~budget u ~p))
  in
  (match interrupted with
  | Error Errors.Fuel -> ()
  | Error Errors.Timeout -> Alcotest.fail "wrong stop reason"
  | Ok _ -> Alcotest.fail "fault after 2 checks must interrupt");
  check "harness disarmed" false (Fault.armed ());
  match (Algorithm2.solve u ~p, Algorithm2.solve u ~p) with
  | Some a, Some b ->
    check "clean rerun equals fresh run" true
      (Iset.equal a.Tree.nodes b.Tree.nodes)
  | _ -> Alcotest.fail "fig3b is solvable"

(* Budgeted runs never alter results on in-class instances: a generous
   budget and no budget agree on method and tree size. *)
let test_generous_budget_same_result () =
  List.iter
    (fun (g, p) ->
      let free = Minconn.solve g ~p in
      let budgeted =
        Minconn.solve ~budget:(Minconn.Budget.make ~fuel:1_000_000_000 ()) g ~p
      in
      match (free, budgeted) with
      | Ok a, Ok b ->
        check "same method" true (a.Minconn.method_used = b.Minconn.method_used);
        check "same size" true
          (Tree.node_count a.Minconn.tree = Tree.node_count b.Minconn.tree);
        check "neither degraded" false
          (Degrade.degraded a.Minconn.provenance
          || Degrade.degraded b.Minconn.provenance)
      | _ -> Alcotest.fail "both must solve")
    [
      (Minconn.Figures.fig3a.Minconn.Figures.graph, Iset.of_list [ 0; 3 ]);
      (Minconn.Figures.fig3b.Minconn.Figures.graph, Iset.of_list [ 0; 2 ]);
      (Minconn.Figures.fig2.Minconn.Figures.graph, Iset.of_list [ 0; 2 ]);
    ]

(* --------------------------------------------- typed error boundary *)

let test_boundary_errors () =
  let g = Minconn.Figures.fig2.Minconn.Figures.graph in
  (match Minconn.solve g ~p:Iset.empty with
  | Error (Errors.Invalid_instance _ as e) ->
    check "exit code 4" true (Errors.exit_code e = 4)
  | _ -> Alcotest.fail "empty terminal set");
  (match Minconn.solve g ~p:(Iset.of_list [ 999 ]) with
  | Error (Errors.Invalid_instance _) -> ()
  | _ -> Alcotest.fail "out-of-range terminal");
  let disconnected = Bigraph.of_edges ~nl:2 ~nr:2 [ (0, 0); (1, 1) ] in
  (match Minconn.solve disconnected ~p:(Iset.of_list [ 0; 1 ]) with
  | Error (Errors.Disconnected_terminals as e) ->
    check "exit code 3" true (Errors.exit_code e = 3)
  | _ -> Alcotest.fail "disconnected terminals");
  check "parse error exit code" true
    (Errors.exit_code (Errors.Parse_error { line = 1; col = 1; msg = "x" }) = 4)

let test_budget_protect () =
  let b = Budget.make ~fuel:0 () in
  (match Budget.protect b (fun () -> Budget.check b) with
  | Error Errors.Fuel -> ()
  | _ -> Alcotest.fail "fuel 0 exhausts on the first check");
  match Budget.protect Budget.unlimited (fun () -> 42) with
  | Ok 42 -> check "unlimited passes through" true true
  | _ -> Alcotest.fail "protect must return the value"

(* The serving pattern: every request runs under its own budget,
   capped by the per-request wall clock, however much fuel it has. *)
let test_request_timeout () =
  let b = Budget.make ~timeout_ms:10 () in
  match
    Budget.protect b (fun () ->
        while true do
          Budget.check b
        done)
  with
  | Error Errors.Timeout -> ()
  | Error e ->
    Alcotest.failf "budget stopped with %s, not timeout"
      (Errors.stop_reason_name e)
  | Ok () -> Alcotest.fail "capped budget never stopped"

let () =
  Alcotest.run "runtime"
    [
      ( "acceptance",
        [
          Alcotest.test_case "X3C gadget degrades under 50ms deadline" `Slow
            test_x3c_deadline;
          Alcotest.test_case "X3C gadget errors with --no-degrade" `Slow
            test_x3c_no_degrade;
        ] );
      ( "fault-matrix",
        [
          Alcotest.test_case "rung: exact-structured (forest)" `Quick
            test_rung_exact_structured;
          Alcotest.test_case "rung: forest needs no budget" `Quick
            test_forest_rung_unbudgeted;
          Alcotest.test_case "rung: exact-dp" `Quick test_rung_exact_dp;
          Alcotest.test_case "rung: fixpoint via terminal cap" `Quick
            test_rung_fixpoint_over_cap;
          Alcotest.test_case "rung: mst after injected fuel exhaustion" `Quick
            (test_rung_mst_after_faults Errors.Fuel);
          Alcotest.test_case "rung: mst after injected timeout" `Quick
            (test_rung_mst_after_faults Errors.Timeout);
          Alcotest.test_case "structured rung abandoned mid-fixpoint" `Quick
            test_rung_structured_abandoned;
          Alcotest.test_case "no-degrade surfaces Budget_exhausted" `Quick
            test_no_degrade_error;
          Alcotest.test_case "probabilistic injection is deterministic" `Quick
            test_probabilistic_determinism;
          Alcotest.test_case "fuel budgets are deterministic" `Quick
            test_fuel_determinism;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "mid-elimination kill leaves no residue" `Quick
            test_cancellation_clean_rerun;
          Alcotest.test_case "generous budget never alters in-class results"
            `Quick test_generous_budget_same_result;
          Alcotest.test_case "per-request timeout stops a budget" `Quick
            test_request_timeout;
        ] );
      ( "errors",
        [
          Alcotest.test_case "typed boundary and exit codes" `Quick
            test_boundary_errors;
          Alcotest.test_case "Budget.protect converts the signal" `Quick
            test_budget_protect;
        ] );
    ]
