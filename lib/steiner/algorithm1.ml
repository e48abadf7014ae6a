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

let to_error = function
  | Disconnected_terminals -> Runtime.Errors.Disconnected_terminals
  | Not_alpha_acyclic ->
    Runtime.Errors.Invalid_instance
      "scheme is not alpha-acyclic (V2-chordal V2-conformal)"

(* Steps 1-3 on a connected slice; [p] lies inside it (the caller
   established connectivity). Step 1 depends only on the component,
   but it is linear in it, so it costs less than the elimination that
   follows and is derived afresh for each terminal set. *)
let solve_slice ?(trace = Observe.Trace.disabled) g ~p =
  let nl = Bigraph.nl g in
  let v2_count nodes = Iset.cardinal (Iset.filter (fun v -> v >= nl) nodes) in
  let n = Bigraph.n g in
  if n <= 1 then
    let nodes = if n = 1 then Iset.singleton 0 else Iset.empty in
    Ok
      {
        tree = { Tree.nodes; edges = [] };
        v2_count = v2_count nodes;
        elimination_order = [];
      }
  else begin
    (* The slice's CSR is the incidence graph of the component's H¹:
       left nodes below [nl], one hyperedge per right node above it.
       The α kernel runs on it directly; no hypergraph is built. *)
    let csr = Bigraph.csr g in
    match
      Observe.Trace.span trace "algorithm1.join_tree" (fun () ->
          Mcs.incidence csr ~boundary:nl)
    with
    | None -> Error Not_alpha_acyclic
    | Some f ->
      (* Lemma 1's W is the reverse of the running-intersection
         ordering: the reverse of the search's selection order. *)
      let w = Array.fold_left (fun w i -> (nl + i) :: w) [] f.Mcs.order in
      Log.debug (fun m ->
          m "Lemma 1 ordering W = [%s]"
            (String.concat "; " (List.map string_of_int w)));
      Observe.Trace.span trace "algorithm1"
        ~attrs:[ ("component", Observe.Trace.Int n) ]
      @@ fun () ->
      let survivors =
        Observe.Trace.span trace "algorithm1.eliminate" (fun () ->
            Cover.eliminate ~drop:Cover.Node_and_private csr ~p w)
      in
      match Tree.of_csr_node_set csr survivors with
      | Some tree ->
        (* With an empty terminal set everything was eliminated: the
           empty tree connects nothing vacuously. *)
        Ok { tree; v2_count = v2_count tree.Tree.nodes; elimination_order = w }
      | None ->
        (* Defensive: every accepted elimination candidate is a
           connected cover, so a spanning tree must exist; degrade
           instead of crashing if that invariant is ever broken. *)
        Error Disconnected_terminals
  end

let relabel ids r =
  {
    r with
    tree = Tree.relabel ids r.tree;
    elimination_order = List.map (fun v -> ids.(v)) r.elimination_order;
  }

(* The terminals' component from the CSR's component layout — the
   component of node 0 when [p] is empty, as
   [Traverse.component_containing] answers — cut out as a graph of its
   own. [Bigraph.slice] renumbers ascending, so W keeps its order and
   every elimination decision is the one a whole-graph run takes. *)
let solve ?trace g ~p =
  let cs = Csr.components (Bigraph.csr g) in
  let label = cs.Csr.label in
  match Iset.min_elt_opt p with
  | _ when not (Iset.for_all (fun v -> v >= 0 && v < Array.length label) p) ->
    Error Disconnected_terminals
  | None when Csr.n_components cs = 0 -> solve_slice ?trace g ~p
  | Some s when not (Iset.for_all (fun v -> label.(v) = label.(s)) p) ->
    Error Disconnected_terminals
  | s ->
    let c = match s with None -> 0 | Some s -> label.(s) in
    let local = Array.make (Array.length label) 0 in
    let sub = Bigraph.slice g cs ~local c in
    solve_slice ?trace sub ~p:(Iset.map (fun v -> local.(v)) p)
    |> Result.map (relabel (Csr.members cs c))

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
