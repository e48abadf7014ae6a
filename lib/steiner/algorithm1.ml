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

(* Step 2 of the algorithm, set-based reference: scan the Lemma 1
   ordering and delete each right node together with its private left
   neighbors whenever the remainder still covers the terminals. A
   single pass can leave a right node that was only blocked by
   structure deleted later in the same pass (covers must be connected
   as a whole); re-scan in the same W order until a fixpoint so the
   result is V2-nonredundant as Theorem 3's proof requires. *)
let eliminate_sets u ~comp ~p w_order =
  let step current v =
    if not (Iset.mem v current) then current
    else begin
      let doomed =
        Iset.add v (Ugraph.private_neighbors u ~within:current v)
      in
      if not (Iset.is_empty (Iset.inter doomed p)) then current
      else
        let candidate = Iset.diff current doomed in
        if Cover.is_cover u ~p candidate then begin
          Log.debug (fun m ->
              m "eliminating right node %d with Adj* %a" v Iset.pp
                (Iset.remove v doomed));
          candidate
        end
        else current
    end
  in
  let rec fixpoint current =
    let next = List.fold_left step current w_order in
    if Iset.equal next current then current else fixpoint next
  in
  fixpoint comp

(* The same elimination as [eliminate_sets] on the flat kernels:
   adjacency from a CSR row, node sets as dense bitsets, connectivity
   by an array-based BFS. The decisions taken are exactly those of
   [eliminate_sets]; only the representation differs. The buffers are
   sized to the graph given, which on the session path is the
   component's slice. *)
let eliminate_kernel csr ~comp ~p w_order =
  let n = Csr.n csr in
  let current = Bitset.create n
  and pb = Bitset.create n
  and doomed = Bitset.create n
  and candidate = Bitset.create n
  and queue = Array.make n 0
  and seen = Array.make n 0
  and generation = ref 0 in
  Iset.iter (Bitset.add current) comp;
  Iset.iter (Bitset.add pb) p;
  let connected within =
    match Bitset.min_elt_opt within with
    | None -> true
    | Some start ->
      incr generation;
      let gen = !generation in
      seen.(start) <- gen;
      queue.(0) <- start;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let x = queue.(!head) in
        incr head;
        Csr.iter_neighbors csr x (fun y ->
            if seen.(y) <> gen && Bitset.mem within y then begin
              seen.(y) <- gen;
              queue.(!tail) <- y;
              incr tail
            end)
      done;
      !tail = Bitset.card within
  in
  let step v =
    if Bitset.mem current v then begin
      Bitset.clear doomed;
      Bitset.add doomed v;
      Csr.iter_neighbors csr v (fun u ->
          if Bitset.mem current u then begin
            let private_to_v = ref true in
            Csr.iter_neighbors csr u (fun w ->
                if w <> v && Bitset.mem current w then private_to_v := false);
            if !private_to_v then Bitset.add doomed u
          end);
      if Bitset.disjoint doomed pb then begin
        Bitset.assign ~dst:candidate ~src:current;
        Bitset.diff_into candidate doomed;
        if Bitset.subset pb candidate && connected candidate then begin
          Log.debug (fun m ->
              m "eliminating right node %d with Adj* %a" v Bitset.pp
                (let adj = Bitset.copy doomed in
                 Bitset.remove adj v;
                 adj));
          Bitset.assign ~dst:current ~src:candidate;
          true
        end
        else false
      end
      else false
    end
    else false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter (fun v -> if step v then changed := true) w_order
  done;
  Bitset.to_iset current

(* ------------------------------------------------------------------ *)
(* Compile-once preprocessing: the Lemma 1 ordering depends only on
   the component, not on the terminal set, so a session answering many
   queries computes the join tree and W once per component.           *)
(* ------------------------------------------------------------------ *)

type prep = {
  comp : Iset.t;
  w_order : int list;  (* [] for trivial (<= 1 node) components *)
}

let prep_order p = p.w_order

let prepare ?(trace = Observe.Trace.disabled) g ~comp =
  if Iset.cardinal comp <= 1 then Ok { comp; w_order = [] }
  else begin
    let c = Bigraph.csr g in
    let nl = Bigraph.nl g in
    let right_in_comp =
      List.filter (fun v -> v >= nl) (Iset.elements comp)
    in
    (* H¹ of the component: one hyperedge per right node, over the left
       universe. Right nodes in the component always have at least one
       neighbor (they would otherwise be isolated and the component
       would be a singleton). Adjacency comes straight from the sorted
       CSR rows — preparing every component of a schema never derives
       the set view or an O(nr) right-node set. *)
    let family =
      List.map
        (fun v -> Iset.of_list (Array.to_list (Csr.sorted_neighbors c v)))
        right_in_comp
    in
    let h = Hypergraph.create ~n_nodes:(Bigraph.nl g) family in
    match
      Observe.Trace.span trace "algorithm1.join_tree" (fun () ->
          Gyo.join_tree h)
    with
    | None -> Error Not_alpha_acyclic
    | Some jt ->
      let rip = Join_tree.preorder jt in
      let right_arr = Array.of_list right_in_comp in
      (* Lemma 1's W is the reverse of the running-intersection
         ordering. *)
      let w_order = List.rev_map (fun i -> right_arr.(i)) rip in
      Log.debug (fun m ->
          m "Lemma 1 ordering W = [%s]"
            (String.concat "; " (List.map string_of_int w_order)));
      Ok { comp; w_order }
  end

(* Step 2 + Step 3 on an already-prepared component. [p] must lie
   inside [prep.comp] (the caller established connectivity). *)
let solve_prepared_with ~eliminate ?(trace = Observe.Trace.disabled) g prep ~p
    =
  let nl = Bigraph.nl g in
  let comp = prep.comp in
  if Iset.cardinal comp <= 1 then
    Ok
      {
        tree = { Tree.nodes = comp; edges = [] };
        v2_count = Iset.cardinal (Iset.filter (fun v -> v >= nl) comp);
        elimination_order = [];
      }
  else begin
    Observe.Trace.span trace "algorithm1"
      ~attrs:[ ("component", Observe.Trace.Int (Iset.cardinal comp)) ]
    @@ fun () ->
    let survivors =
      Observe.Trace.span trace "algorithm1.eliminate" (fun () ->
          eliminate ~comp ~p prep.w_order)
    in
    (* The set view is only needed here, for tree extraction over the
       (small) survivor set; count V2 nodes by index instead of an
       O(nr) right-node set. *)
    match Tree.of_node_set (Bigraph.ugraph g) survivors with
    | Some tree ->
      Ok
        {
          tree;
          v2_count =
            Iset.cardinal (Iset.filter (fun v -> v >= nl) tree.Tree.nodes);
          elimination_order = prep.w_order;
        }
    | None when Iset.is_empty survivors ->
      (* Empty terminal set: everything was eliminated; the empty
         tree connects nothing vacuously. *)
      Ok
        {
          tree = { Tree.nodes = Iset.empty; edges = [] };
          v2_count = 0;
          elimination_order = prep.w_order;
        }
    | None ->
      (* Defensive: every accepted elimination candidate is a
         connected cover, so a spanning tree must exist; degrade
         instead of crashing if that invariant is ever broken. *)
      Error Disconnected_terminals
  end

(* The session path: the elimination and the tree extraction run on
   the prep's component as a graph of its own. [Bigraph.induced]
   renumbers ascending, so W keeps its order, every decision is the
   one the whole-graph run takes, and the mapped-back tree is the one
   {!solve} returns. *)
let solve_prepared ?trace g prep ~p =
  let sub, ids = Bigraph.induced g prep.comp in
  let local = Csr.local_index ids in
  let prep' =
    {
      comp = Iset.range (Array.length ids);
      w_order = List.map local prep.w_order;
    }
  in
  match
    solve_prepared_with
      ~eliminate:(eliminate_kernel (Bigraph.csr sub))
      ?trace sub prep' ~p:(Iset.map local p)
  with
  | Ok r ->
    Ok
      {
        r with
        tree = Tree.relabel ids r.tree;
        elimination_order = prep.w_order;
      }
  | Error e -> Error e

let solve_with ~eliminate ?trace g ~p =
  match Traverse.component_containing (Bigraph.ugraph g) p with
  | None -> Error Disconnected_terminals
  | Some comp -> (
    match prepare ?trace g ~comp with
    | Error e -> Error e
    | Ok prep -> solve_prepared_with ~eliminate ?trace g prep ~p)

let solve ?trace g ~p =
  solve_with ~eliminate:(eliminate_kernel (Bigraph.csr g)) ?trace g ~p

let solve_sets ?trace g ~p =
  solve_with ~eliminate:(eliminate_sets (Bigraph.ugraph g)) ?trace g ~p

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
