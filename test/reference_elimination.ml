(* Test oracles for [Cover.eliminate], the one elimination fixpoint the
   library runs, and for [Cover.seed], the node set Algorithm 2
   eliminates in. The elimination references work on the Iset view
   with one set-view BFS per candidate, over the whole graph instead
   of a CSR slice; they must take exactly the kernel's decisions. *)

open Graphs
open Steiner

(* Algorithm 2's move (Definition 11): scan [order], drop each
   non-terminal still present whose removal leaves a cover of [p];
   re-scan until a pass drops nothing. [steps] is bumped once per
   considered candidate, as the kernel does. *)
let eliminate_sets ?order ?(steps = Observe.Metrics.inert) g ~within ~p =
  let order = match order with Some o -> o | None -> Iset.elements within in
  let pass current =
    List.fold_left
      (fun current v ->
        if Iset.mem v p || not (Iset.mem v current) then current
        else begin
          Observe.Metrics.incr steps;
          let candidate = Iset.remove v current in
          if Cover.is_cover g ~p candidate then candidate else current
        end)
      current order
  in
  let rec fixpoint current =
    let next = pass current in
    if Iset.equal next current then current else fixpoint next
  in
  fixpoint within

(* [Cover.seed] on the set view, written independently: a full BFS
   from the least terminal over ascending neighbour sets (each node's
   parent is the node that first reached it), then the union of the
   parent paths from every terminal. [None] when a terminal is
   unreached. *)
let bfs_seed u ~p =
  match Iset.min_elt_opt p with
  | None -> Some Iset.empty
  | Some root ->
    let parent = Hashtbl.create 64 and queue = Queue.create () in
    Hashtbl.replace parent root root;
    Queue.push root queue;
    while not (Queue.is_empty queue) do
      let x = Queue.pop queue in
      Iset.iter
        (fun y ->
          if not (Hashtbl.mem parent y) then begin
            Hashtbl.replace parent y x;
            Queue.push y queue
          end)
        (Ugraph.neighbors u x)
    done;
    let rec path v acc =
      if v = root then Iset.add v acc
      else path (Hashtbl.find parent v) (Iset.add v acc)
    in
    if Iset.for_all (Hashtbl.mem parent) p then Some (Iset.fold path p Iset.empty)
    else None

(* Algorithm 1's Step 2: drop each right node of W together with its
   private left neighbors whenever the remainder still covers [p]. *)
let algorithm1_eliminate_sets u ~comp ~p w_order =
  let step current v =
    if not (Iset.mem v current) then current
    else
      let doomed = Iset.add v (Ugraph.private_neighbors u ~within:current v) in
      if not (Iset.is_empty (Iset.inter doomed p)) then current
      else
        let candidate = Iset.diff current doomed in
        if Cover.is_cover u ~p candidate then candidate else current
  in
  let rec fixpoint current =
    let next = List.fold_left step current w_order in
    if Iset.equal next current then current else fixpoint next
  in
  fixpoint comp

(* Algorithm 1 end to end on the whole graph's set view: the reference
   [Algorithm1.solve] must reproduce field for field. Only W comes from
   the library: the [elimination_order] of [Algorithm1.solve_slice] on
   the component's slice, mapped back to the graph's ids here. *)
let algorithm1_sets g ~p =
  let u = Bipartite.Bigraph.ugraph g in
  let nl = Bipartite.Bigraph.nl g in
  let v2_count nodes = Iset.cardinal (Iset.filter (fun v -> v >= nl) nodes) in
  match Traverse.component_containing u p with
  | None -> Error Algorithm1.Disconnected_terminals
  | Some comp -> (
    let slice, ids = Bipartite.Bigraph.induced g comp in
    match
      Algorithm1.solve_slice slice ~p:(Iset.map (Csr.local_index ids) p)
    with
    | Error Algorithm1.Not_alpha_acyclic -> Error Algorithm1.Not_alpha_acyclic
    | Error Algorithm1.Disconnected_terminals ->
      (* The slice is the terminals' component: only a broken Step 2
         could lose them, and the reference must not echo that. *)
      failwith "Algorithm1.solve_slice lost terminals on their own component"
    | Ok _ when Iset.cardinal comp <= 1 ->
      Ok
        {
          Algorithm1.tree = { Tree.nodes = comp; edges = [] };
          v2_count = v2_count comp;
          elimination_order = [];
        }
    | Ok r -> (
      let w = List.map (fun v -> ids.(v)) r.Algorithm1.elimination_order in
      let survivors = algorithm1_eliminate_sets u ~comp ~p w in
      match Tree.of_node_set u survivors with
      | Some tree ->
        Ok
          {
            Algorithm1.tree;
            v2_count = v2_count tree.Tree.nodes;
            elimination_order = w;
          }
      | None when Iset.is_empty survivors ->
        Ok { Algorithm1.tree = Tree.empty; v2_count = 0; elimination_order = w }
      | None -> Error Algorithm1.Disconnected_terminals))
