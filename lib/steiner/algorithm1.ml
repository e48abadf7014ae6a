open Graphs
open Bipartite
open Hypergraphs

let log_src =
  Logs.Src.create "minconn.algorithm1" ~doc:"Algorithm 1 (Theorem 3/4)"

module Log = (val Logs.src_log log_src : Logs.LOG)

type error = Disconnected_terminals | Not_alpha_acyclic

type result = {
  tree : Tree.t;
  v2_count : int;
  elimination_order : int list;
}

(* ------------------------------------------------------------------ *)
(* Compile-once preprocessing: the Lemma 1 ordering depends only on
   the component, not on the terminal set, so a session answering many
   queries runs the α kernel and derives W once per component.        *)
(* ------------------------------------------------------------------ *)

type prep = {
  comp : Iset.t;
  w_order : int list;  (* [] for trivial (<= 1 node) components *)
}

let to_error = function
  | Disconnected_terminals -> Runtime.Errors.Disconnected_terminals
  | Not_alpha_acyclic ->
    Runtime.Errors.Invalid_instance
      "scheme is not alpha-acyclic (V2-chordal V2-conformal)"

let prep_order p = p.w_order

let prepare ?(trace = Observe.Trace.disabled) ?slice g ~comp =
  if Iset.cardinal comp <= 1 then Ok { comp; w_order = [] }
  else begin
    let sub, ids =
      match slice with Some s -> s | None -> Bigraph.induced g comp
    in
    (* The slice's CSR is the incidence graph of the component's H¹:
       left nodes below [nl], one hyperedge per right node above it.
       The α kernel runs on it directly; no hypergraph is built. *)
    let nl = Bigraph.nl sub in
    match
      Observe.Trace.span trace "algorithm1.join_tree" (fun () ->
          Mcs.incidence (Bigraph.csr sub) ~boundary:nl)
    with
    | None -> Error Not_alpha_acyclic
    | Some f ->
      (* Lemma 1's W is the reverse of the running-intersection
         ordering: the reverse of the search's selection order. *)
      let w_order =
        Array.fold_left (fun w i -> ids.(nl + i) :: w) [] f.Mcs.order
      in
      Log.debug (fun m ->
          m "Lemma 1 ordering W = [%s]"
            (String.concat "; " (List.map string_of_int w_order)));
      Ok { comp; w_order }
  end

(* Steps 2 and 3 on the prep's component as a graph of its own:
   [Bigraph.induced] renumbers ascending, so W keeps its order and
   every elimination decision is the one a whole-graph run takes; the
   tree is extracted on the slice and mapped back. [p] must lie inside
   [prep.comp] (the caller established connectivity). *)
let solve_prepared ?(trace = Observe.Trace.disabled) g prep ~p =
  let nl = Bigraph.nl g in
  let v2_count nodes = Iset.cardinal (Iset.filter (fun v -> v >= nl) nodes) in
  let comp = prep.comp in
  if Iset.cardinal comp <= 1 then
    Ok
      {
        tree = { Tree.nodes = comp; edges = [] };
        v2_count = v2_count comp;
        elimination_order = [];
      }
  else begin
    Observe.Trace.span trace "algorithm1"
      ~attrs:[ ("component", Observe.Trace.Int (Iset.cardinal comp)) ]
    @@ fun () ->
    let sub, ids = Bigraph.induced g comp in
    let local = Csr.local_index ids in
    let survivors =
      Observe.Trace.span trace "algorithm1.eliminate" (fun () ->
          Cover.eliminate ~drop:Cover.Node_and_private (Bigraph.csr sub)
            ~p:(Iset.map local p) (List.map local prep.w_order))
    in
    match Tree.of_csr_node_set (Bigraph.csr sub) survivors with
    | Some tree ->
      (* With an empty terminal set everything was eliminated: the
         empty tree connects nothing vacuously. *)
      let tree = Tree.relabel ids tree in
      Ok
        {
          tree;
          v2_count = v2_count tree.Tree.nodes;
          elimination_order = prep.w_order;
        }
    | None ->
      (* Defensive: every accepted elimination candidate is a
         connected cover, so a spanning tree must exist; degrade
         instead of crashing if that invariant is ever broken. *)
      Error Disconnected_terminals
  end

(* The terminals' component from the CSR's component labelling — the
   component of node 0 when [p] is empty, as
   [Traverse.component_containing] answers. *)
let solve ?trace g ~p =
  let ids, comps = Csr.component_ids (Bigraph.csr g) in
  let comp =
    match (Iset.min_elt_opt p, comps) with
    | _ when not (Iset.for_all (fun v -> v >= 0 && v < Array.length ids) p) ->
      None
    | None, [] -> Some Iset.empty
    | None, first :: _ -> Some first
    | Some s, _ ->
      if Iset.for_all (fun v -> ids.(v) = ids.(s)) p then
        Some (List.nth comps ids.(s))
      else None
  in
  match comp with
  | None -> Error Disconnected_terminals
  | Some comp -> (
    match prepare ?trace g ~comp with
    | Error e -> Error e
    | Ok prep -> solve_prepared ?trace g prep ~p)

let solve_wrt_v1 g ~p =
  let flipped = Bigraph.flip g in
  let to_flipped v =
    match Bigraph.node_of_index g v with
    | Bigraph.L i -> Bigraph.index flipped (Bigraph.R i)
    | Bigraph.R j -> Bigraph.index flipped (Bigraph.L j)
  in
  let to_original v =
    match Bigraph.node_of_index flipped v with
    | Bigraph.L j -> Bigraph.index g (Bigraph.R j)
    | Bigraph.R i -> Bigraph.index g (Bigraph.L i)
  in
  match solve flipped ~p:(Iset.map to_flipped p) with
  | Error e -> Error e
  | Ok r ->
    let nodes = Iset.map to_original r.tree.Tree.nodes in
    let edges =
      List.map
        (fun (a, b) ->
          let a = to_original a and b = to_original b in
          (min a b, max a b))
        r.tree.Tree.edges
    in
    Ok
      {
        tree = { Tree.nodes; edges };
        v2_count = r.v2_count;
        elimination_order = List.map to_original r.elimination_order;
      }
