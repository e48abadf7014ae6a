(* Compare the three Steiner solvers across chordality classes: the
   structure-aware Algorithm 2, the exact exponential DP, and the
   structure-oblivious MST 2-approximation. On (6,2)-chordal inputs
   Algorithm 2 is exact (Theorem 5); off-class the elimination loses
   its guarantee and the DP is the only exact option.

   Run with: dune exec examples/steiner_playground.exe *)

open Graphs
open Bipartite
open Steiner

let describe name g terminals =
  let u = Bigraph.ugraph g in
  let is62 = Mn_chordality.is_62_chordal g in
  let alg2 = Algorithm2.solve u ~p:terminals in
  let exact = Dreyfus_wagner.solve u ~terminals in
  let approx = Mst_approx.solve u ~terminals in
  let count = function Some t -> string_of_int (Tree.node_count t) | None -> "-" in
  Format.printf "%-26s %8s %6s %6s %6s %s@." name
    (if is62 then "(6,2)" else "not-62")
    (count alg2) (count exact) (count approx)
    (match (alg2, exact) with
    | Some a, Some e when Tree.node_count a = Tree.node_count e ->
      "elimination exact"
    | Some a, Some e ->
      Printf.sprintf "elimination +%d over optimum"
        (Tree.node_count a - Tree.node_count e)
    | _ -> "")

(* One deterministic stream per instance, through the same helper the
   bench harness uses, so each row is reproducible on its own rather
   than depending on how much randomness earlier rows consumed. *)
let trial ~section i = Workloads.Rng.for_trial ~section ~trial:i

let () =
  Format.printf "%-26s %8s %6s %6s %6s@." "instance" "class" "alg2" "exact"
    "approx";
  Format.printf "%s@." (String.make 72 '-');
  (* In-class instances: Algorithm 2 always ties the exact DP. *)
  for i = 1 to 5 do
    let rng = trial ~section:"playground-62" i in
    let g = Workloads.Gen_bipartite.chordal_62 rng ~n_right:8 ~max_size:4 in
    let p = Workloads.Gen_bipartite.random_terminals rng g ~k:4 in
    if Iset.cardinal p >= 2 then
      describe (Printf.sprintf "gamma-acyclic #%d" i) g p
  done;
  (* Off-class instances: elimination may lose. *)
  for i = 1 to 5 do
    let rng = trial ~section:"playground-gnp" i in
    let g = Workloads.Gen_bipartite.gnp rng ~nl:7 ~nr:7 ~p:0.25 in
    let p = Workloads.Gen_bipartite.random_terminals rng g ~k:4 in
    if Iset.cardinal p >= 2 then
      describe (Printf.sprintf "random bipartite #%d" i) g p
  done;
  (* The paper's own boundary case. *)
  let fig11 = Datamodel.Figures.fig11 in
  (match Datamodel.Figures.fig11_bad_terminals ~first:"A" with
  | Some p ->
    Format.printf "@.Theorem 6 boundary (Fig. 11), P = {3, C, 4, D}:@.";
    let u = Bigraph.ugraph fig11.Datamodel.Figures.graph in
    let bad_order =
      match Datamodel.Figures.index_of_name fig11 "A" with
      | Some a -> [ a ]
      | None -> []
    in
    (* Definition 11's elimination over the whole graph: Algorithm 2
       itself eliminates inside a BFS seed, where A may never appear. *)
    let nodes = Ugraph.nodes u in
    let order =
      bad_order @ Iset.elements (Iset.diff nodes (Iset.of_list bad_order))
    in
    let eliminated = Cover.eliminate_redundant ~order u ~within:nodes ~p in
    let exact = Dreyfus_wagner.solve u ~terminals:p in
    let count = function Some t -> Tree.node_count t | None -> -1 in
    Format.printf
      "  eliminating A first: %d nodes; optimum: %d nodes — no ordering is \
       good on this graph@."
      (Iset.cardinal eliminated) (count exact)
  | None -> ());
  (* X3C hardness gadget: watch the exact solver's work blow up. *)
  Format.printf "@.Theorem 2 gadgets (exact solver on 3q+1 terminals):@.";
  List.iter
    (fun q ->
      let rng = trial ~section:"playground-x3c" q in
      let inst = Workloads.Gen_x3c.planted rng ~q ~distractors:q in
      let red = Reductions.theorem2 inst in
      let t0 = Sys.time () in
      let ok = Reductions.steiner_within_budget red in
      let dt = (Sys.time () -. t0) *. 1000.0 in
      Format.printf "  q=%d: budget %d, solvable=%b, %.1f ms@." q
        red.Reductions.budget ok dt)
    [ 2; 3; 4 ]
