
module Iset = Graphs.Iset
module Ugraph = Graphs.Ugraph
module Traverse = Graphs.Traverse
module Chordal = Graphs.Chordal
module Strongly_chordal = Graphs.Strongly_chordal
module Hypergraph = Hypergraphs.Hypergraph
module Acyclicity = Hypergraphs.Acyclicity
module Join_tree = Hypergraphs.Join_tree
module Decomposition = Hypergraphs.Decomposition
module Bigraph = Bipartite.Bigraph
module Correspond = Bipartite.Correspond
module Classify = Bipartite.Classify
module Delta = Bipartite.Delta
module Mn_chordality = Bipartite.Mn_chordality
module Side_properties = Bipartite.Side_properties
module Tree = Steiner.Tree
module Kbest = Steiner.Kbest
module Local_search = Steiner.Local_search
module Algorithm1 = Steiner.Algorithm1
module Algorithm2 = Steiner.Algorithm2
module Dreyfus_wagner = Steiner.Dreyfus_wagner
module Mst_approx = Steiner.Mst_approx
module Schema = Datamodel.Schema
module Er = Datamodel.Er
module Query = Datamodel.Query
module Interface = Datamodel.Interface
module Dialogue = Datamodel.Dialogue
module Layered = Datamodel.Layered
module Repair = Datamodel.Repair
module Figures = Datamodel.Figures

module Budget = Runtime.Budget
module Degrade = Runtime.Degrade
module Errors = Runtime.Errors
module Compiled = Engine.Compiled
module Session = Engine.Session
module Plan_cache = Cache.Plan_cache

type method_used = Engine.Session.method_used =
  | Used_forest
  | Used_algorithm2
  | Used_exact_dp
  | Used_elimination
  | Used_mst_approx

type solution = Engine.Session.solution = {
  tree : Tree.t;
  method_used : method_used;
  optimal : bool;
  profile : Classify.profile;
  provenance : Degrade.provenance;
}

(* The one-shot convenience wrapper over Engine's compile+query split.
   The session's locate validates the terminals (empty, out of range,
   disconnected) in O(|p|) from the plan's component ids. *)
let solve ?(budget = Budget.unlimited) ?(degrade = true)
    ?(trace = Observe.Trace.disabled) ?(metrics = Observe.Metrics.disabled) g
    ~p =
  Observe.Trace.span trace "solve"
    ~attrs:
      [
        ("terminals", Observe.Trace.Int (Iset.cardinal p));
        ("nodes", Observe.Trace.Int (Bigraph.n g));
      ]
  @@ fun () ->
  let compiled = Compiled.compile ~trace ~metrics g in
  let session = Session.create ~budget ~degrade ~trace ~metrics compiled in
  Session.query session ~p

let solve_steiner ?budget g ~p =
  match solve ?budget g ~p with Ok s -> Some s | Error _ -> None

(* Same typed front door as [solve]: reject empty and out-of-range
   terminal sets in O(|p|) before Algorithm 1 runs, and surface its
   rejections (disconnected terminals, a cyclic scheme) as typed
   errors instead of private variants. *)
let solve_min_relations g ~p =
  match (Iset.min_elt_opt p, Iset.max_elt_opt p) with
  | None, _ | _, None -> Error (Errors.Invalid_instance "empty terminal set")
  | Some lo, Some hi when lo < 0 || hi >= Bigraph.n g ->
    Error (Errors.Invalid_instance "terminal index out of range")
  | Some _, Some _ -> (
    match Algorithm1.solve g ~p with
    | Ok r -> Ok r
    | Error Algorithm1.Disconnected_terminals ->
      Error Errors.Disconnected_terminals
    | Error Algorithm1.Not_alpha_acyclic ->
      Error
        (Errors.Invalid_instance
           "scheme is not alpha-acyclic (V2-chordal V2-conformal)"))

let report ?trace g =
  let profile = Classify.profile ?trace g in
  Format.asprintf "%a@.recommendation: %s@." Classify.pp_profile profile
    (Classify.recommendation_name (Classify.recommend profile))

let version = "1.0.0"
