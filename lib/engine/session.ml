open Graphs
open Bipartite
module Budget = Runtime.Budget
module Degrade = Runtime.Degrade
module Errors = Runtime.Errors
module Fault = Runtime.Fault
module Tree = Steiner.Tree
module Algorithm1 = Steiner.Algorithm1
module Algorithm2 = Steiner.Algorithm2
module Dreyfus_wagner = Steiner.Dreyfus_wagner
module Mst_approx = Steiner.Mst_approx

type method_used =
  | Used_forest
  | Used_algorithm2
  | Used_exact_dp
  | Used_elimination
  | Used_mst_approx

type solution = {
  tree : Tree.t;
  method_used : method_used;
  optimal : bool;
  profile : Classify.profile;
  provenance : Degrade.provenance;
}

type t = {
  compiled : Compiled.t;
  budget : Budget.t;
  degrade : bool;
  trace : Observe.Trace.t;
  metrics : Observe.Metrics.t;
}

let create ?(budget = Budget.unlimited) ?(degrade = true)
    ?(trace = Observe.Trace.disabled) ?(metrics = Observe.Metrics.disabled)
    compiled =
  { compiled; budget; degrade; trace; metrics }

let compiled t = t.compiled

(* Plan swap for live schema evolution: a session holds nothing sized
   to the plan, so retargeting is a field update. The physical-equality
   fast path keeps the per-request resync in lib/serve allocation-free
   when the schema has not changed. *)
let with_plan t compiled =
  if compiled == t.compiled then t else { t with compiled }

(* O(|p| + log n) location against the cached component ids, with no
   traversal; [Minconn.solve] validates its terminals here too. *)
let locate t ~p =
  let c = t.compiled in
  match (Iset.min_elt_opt p, Iset.max_elt_opt p) with
  | None, _ | _, None ->
    Error (Errors.Invalid_instance "empty terminal set")
  | Some lo, Some hi ->
    if lo < 0 || hi >= Bigraph.n c.Compiled.graph then
      Error (Errors.Invalid_instance "terminal index out of range")
    else begin
      let cid = c.Compiled.comp_id.(lo) in
      if Iset.for_all (fun v -> c.Compiled.comp_id.(v) = cid) p then
        Ok c.Compiled.components.(cid)
      else Error Errors.Disconnected_terminals
    end

(* One rung of the degradation ladder: identity for provenance, the
   method tag and guarantee reported on success, and the solver thunk
   (the only place the internal Budget.Exhausted signal can arise). *)
type rung_spec = {
  rung : Errors.rung;
  meth : method_used;
  guarantee : Degrade.guarantee;
  run : unit -> Tree.t option;
}

let query ?budget ?degrade t ~p =
  let trace = t.trace in
  let budget = match budget with Some b -> b | None -> t.budget in
  let degrade = match degrade with Some d -> d | None -> t.degrade in
  let metrics = t.metrics in
  let c = t.compiled in
  match locate t ~p with
  | Error e -> Error e
  | Ok comp ->
    Observe.Trace.span trace "query"
      ~attrs:
        [
          ("terminals", Observe.Trace.Int (Iset.cardinal p));
          ("component", Observe.Trace.Int (Iset.cardinal comp.Compiled.nodes));
        ]
    @@ fun () ->
    Observe.Metrics.incr (Observe.Metrics.counter metrics "engine.queries");
    let profile = c.Compiled.profile in
    (* Every rung runs on the terminals' component as a graph of its
       own: a minimal connection never leaves it, so a query costs the
       component, not the schema. [Bigraph.induced] renumbers
       ascending — a monotone relabeling — so each rung takes the
       decisions it takes on the whole graph, and the tree mapped back
       through [ids] is the one a whole-graph run returns. A connected
       schema is its own slice. Every rung, and the traced [verify],
       runs on the slice's CSR; none builds the set view. *)
    let g, ids = Bigraph.induced c.Compiled.graph comp.Compiled.nodes in
    let csr = Bigraph.csr g in
    let p = Iset.map (Csr.local_index ids) p in
    let mst_rung =
      {
        rung = Errors.Mst;
        meth = Used_mst_approx;
        guarantee = Degrade.Ratio 2.0;
        run = (fun () -> Mst_approx.solve_csr ~trace csr ~terminals:p);
      }
    in
    let algorithm2 () =
      Algorithm2.solve_csr ~budget ~trace ~metrics csr ~p
    in
    let fixpoint_rung =
      {
        rung = Errors.Fixpoint;
        meth = Used_elimination;
        guarantee = Degrade.Heuristic;
        run = algorithm2;
      }
    in
    let pre_attempts, ladder =
      if profile.Classify.chordal_41 then
        ( [],
          [
            {
              rung = Errors.Exact_structured;
              meth = Used_forest;
              guarantee = Degrade.Exact;
              run =
                (fun () -> Steiner.Forest_steiner.solve_csr csr ~terminals:p);
            };
            mst_rung;
          ] )
      else if profile.Classify.chordal_62 then
        (* Algorithm 2 is exact here (Theorem 5); its elimination
           fixpoint is what the budget meters, and on exhaustion the
           only rung left is the approximation. *)
        ( [],
          [
            {
              rung = Errors.Exact_structured;
              meth = Used_algorithm2;
              guarantee = Degrade.Exact;
              run = algorithm2;
            };
            mst_rung;
          ] )
      else if Iset.cardinal p <= Dreyfus_wagner.max_terminals then
        ( [],
          [
            {
              rung = Errors.Exact_dp;
              meth = Used_exact_dp;
              guarantee = Degrade.Exact;
              run =
                (fun () ->
                  Dreyfus_wagner.solve_csr ~budget ~trace ~metrics csr
                    ~terminals:p);
            };
            fixpoint_rung;
            mst_rung;
          ] )
      else
        (* The exact DP was never attempted: say so in the provenance
           instead of silently reporting [optimal = false]. *)
        ( [
            {
              Degrade.rung = Errors.Exact_dp;
              why = Degrade.Terminals_over_cap;
            };
          ],
          [ fixpoint_rung; mst_rung ] )
    in
    let abandonments = Observe.Metrics.counter metrics "rung.abandonments" in
    let budget_checks = Observe.Metrics.counter metrics "budget.checks" in
    (* One span per attempted rung: outcome, abandonment reason, and the
       number of cooperative budget checks the rung consumed (a delta of
       [Budget.spent], so the hot path gains no new counter). *)
    let run_rung spec =
      Observe.Trace.span trace ("rung:" ^ Errors.rung_name spec.rung)
      @@ fun () ->
      let checks0 = Budget.spent budget in
      let outcome =
        match spec.run () with
        | Some tree -> `Ran tree
        | None -> `Abandoned Degrade.Out_of_class
        | exception Budget.Exhausted stop ->
          `Exhausted (stop, Degrade.reason_of_stop stop)
      in
      Observe.Metrics.incr ~by:(Budget.spent budget - checks0) budget_checks;
      Observe.Trace.add_attr trace "budget_checks"
        (Observe.Trace.Int (Budget.spent budget - checks0));
      (match outcome with
      | `Ran tree ->
        Observe.Trace.add_attr trace "outcome" (Observe.Trace.Str "ran");
        Observe.Trace.add_attr trace "tree_nodes"
          (Observe.Trace.Int (Tree.node_count tree))
      | `Abandoned why | `Exhausted (_, why) ->
        Observe.Metrics.incr abandonments;
        Observe.Trace.add_attr trace "outcome" (Observe.Trace.Str "abandoned");
        Observe.Trace.add_attr trace "reason"
          (Observe.Trace.Str (Degrade.reason_name why)));
      outcome
    in
    let rec descend attempts = function
      | [] ->
        (* Unreachable with a connected [p]: the MST rung is
           un-budgeted and total. Report the last abandoned rung. *)
        Error
          (Errors.Budget_exhausted
             (match attempts with
             | { Degrade.rung; _ } :: _ -> rung
             | [] -> Errors.Mst))
      | spec :: rest -> (
        match run_rung spec with
        | `Ran tree ->
          let provenance =
            {
              Degrade.ran = spec.rung;
              attempts = List.rev attempts;
              guarantee = spec.guarantee;
            }
          in
          Degrade.trace_ran trace provenance;
          if Observe.Trace.active trace then
            Observe.Trace.span trace "verify" (fun () ->
                Observe.Trace.add_attr trace "covers_terminals"
                  (Observe.Trace.Bool
                     (Tree.verify_csr csr ~terminals:p tree)));
          Ok
            {
              tree = Tree.relabel ids tree;
              method_used = spec.meth;
              optimal = spec.guarantee = Degrade.Exact;
              profile;
              provenance;
            }
        | `Abandoned why ->
          let attempt = { Degrade.rung = spec.rung; why } in
          Degrade.trace_abandon trace attempt;
          descend (attempt :: attempts) rest
        | `Exhausted (_, why) ->
          let attempt = { Degrade.rung = spec.rung; why } in
          Degrade.trace_abandon trace attempt;
          if degrade then descend (attempt :: attempts) rest
          else Error (Errors.Budget_exhausted spec.rung))
    in
    List.iter (Degrade.trace_abandon trace) pre_attempts;
    descend (List.rev pre_attempts) ladder

(* The batch path snapshots the caller's fault plan once and
   re-derives an independent plan per query index, so a query's
   injected faults do not depend on its neighbours in the batch. *)
let solve_many ?budget ?make_budget ?degrade t ps =
  let fault = Fault.capture () in
  let budget_for i =
    match make_budget with Some f -> Some (f i) | None -> budget
  in
  List.mapi
    (fun i p ->
      Fault.with_derived fault ~index:i (fun () ->
          query ?budget:(budget_for i) ?degrade t ~p))
    ps

(* Algorithm 1 against the compiled Lemma 1 ordering: the α kernel ran
   at compile time, each query only replays the elimination on the
   terminals' component. *)
let query_relations t ~p =
  match locate t ~p with
  | Error e -> Error e
  | Ok comp -> (
    match comp.Compiled.alg1_prep with
    | Error Algorithm1.Not_alpha_acyclic ->
      Error
        (Errors.Invalid_instance
           "scheme is not alpha-acyclic (V2-chordal V2-conformal)")
    | Error Algorithm1.Disconnected_terminals ->
      (* prepare never returns this; locate already placed [p]. *)
      Error Errors.Disconnected_terminals
    | Ok prep -> (
      match
        Algorithm1.solve_prepared ~trace:t.trace t.compiled.Compiled.graph
          prep ~p
      with
      | Ok r -> Ok r
      | Error Algorithm1.Disconnected_terminals ->
        Error Errors.Disconnected_terminals
      | Error Algorithm1.Not_alpha_acyclic ->
        Error
          (Errors.Invalid_instance
             "scheme is not alpha-acyclic (V2-chordal V2-conformal)")))
