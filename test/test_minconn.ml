(* Tests for the facade library. *)

let check = Alcotest.(check bool)

let test_forest_dispatch () =
  let g = Minconn.Figures.fig3a.Minconn.Figures.graph in
  match Minconn.solve g ~p:(Minconn.Iset.of_list [ 0; 3 ]) with
  | Ok s ->
    check "fig3a routed to the forest solver" true
      (s.Minconn.method_used = Minconn.Used_forest);
    check "optimal" true s.Minconn.optimal
  | Error _ -> Alcotest.fail "solvable"

let test_solve_dispatch () =
  let fig3b = Minconn.Figures.fig3b.Minconn.Figures.graph in
  let p = Minconn.Iset.of_list [ 0; 2 ] in
  (match Minconn.solve fig3b ~p with
  | Ok s ->
    check "fig3b routed to Algorithm 2" true
      (s.Minconn.method_used = Minconn.Used_algorithm2);
    check "optimal" true s.Minconn.optimal
  | Error _ -> Alcotest.fail "solvable");
  let fig2 = Minconn.Figures.fig2.Minconn.Figures.graph in
  match Minconn.solve fig2 ~p with
  | Ok s ->
    check "fig2 routed to exact DP" true
      (s.Minconn.method_used = Minconn.Used_exact_dp)
  | Error _ -> Alcotest.fail "solvable"

let test_solve_disconnected () =
  let g = Minconn.Bigraph.of_edges ~nl:2 ~nr:2 [ (0, 0); (1, 1) ] in
  check "disconnected returns an error" true
    (Result.is_error (Minconn.solve g ~p:(Minconn.Iset.of_list [ 0; 1 ])))

let test_min_relations_facade () =
  let fig2 = Minconn.Figures.fig2.Minconn.Figures.graph in
  match Minconn.solve_min_relations fig2 ~p:(Minconn.Iset.of_list [ 0; 1 ]) with
  | Ok r -> check "v2 count positive" true (r.Minconn.Algorithm1.v2_count >= 1)
  | Error _ -> Alcotest.fail "fig2 H1 alpha-acyclic"

let test_report () =
  let s = Minconn.report Minconn.Figures.fig3b.Minconn.Figures.graph in
  check "report mentions Algorithm 2" true
    (String.length s > 0
    &&
    let contains hay needle =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    contains s "Algorithm 2")

let () =
  Alcotest.run "minconn"
    [
      ( "facade",
        [
          Alcotest.test_case "dispatch" `Quick test_solve_dispatch;
          Alcotest.test_case "forest dispatch" `Quick test_forest_dispatch;
          Alcotest.test_case "disconnected" `Quick test_solve_disconnected;
          Alcotest.test_case "min relations" `Quick test_min_relations_facade;
          Alcotest.test_case "report" `Quick test_report;
        ] );
    ]
