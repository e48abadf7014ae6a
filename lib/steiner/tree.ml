open Graphs

type t = { nodes : Iset.t; edges : (int * int) list }

let empty = { nodes = Iset.empty; edges = [] }

let node_count t = Iset.cardinal t.nodes

let count_in t s = Iset.cardinal (Iset.inter t.nodes s)

let verify g ~terminals t =
  Iset.subset terminals t.nodes && Spanning.tree_check g ~over:t.nodes t.edges

let verify_csr csr ~terminals t =
  Iset.subset terminals t.nodes
  && Spanning.tree_check_by (Csr.mem_edge csr) ~over:t.nodes t.edges

let relabel ids t =
  {
    nodes = Iset.map (fun v -> ids.(v)) t.nodes;
    edges = List.map (fun (a, b) -> (ids.(a), ids.(b))) t.edges;
  }

let of_node_set g nodes =
  match Spanning.spanning_tree ~within:nodes g with
  | Some edges -> Some { nodes; edges }
  | None -> None

(* The BFS [Spanning.spanning_tree] makes on the set view — from the
   least node, each row scanned ascending — over the CSR's sorted rows,
   so the same edges in the same order. [unseen] starts as [nodes] and
   loses each node as the BFS reaches it. *)
let of_csr_node_set csr nodes =
  match Iset.min_elt_opt nodes with
  | None -> Some { nodes; edges = [] }
  | Some root ->
    let unseen = Bitset.create (Csr.n csr) in
    Iset.iter (Bitset.add unseen) nodes;
    Bitset.remove unseen root;
    let queue = Array.make (Iset.cardinal nodes) root in
    let head = ref 0 and tail = ref 1 and edges = ref [] in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      Csr.iter_neighbors csr u (fun v ->
          if Bitset.mem unseen v then begin
            Bitset.remove unseen v;
            edges := (u, v) :: !edges;
            queue.(!tail) <- v;
            incr tail
          end)
    done;
    if !tail = Array.length queue then Some { nodes; edges = List.rev !edges }
    else None

let spanning_with_leaves_in g ~nodes ~terminals =
  let all_edges =
    List.filter
      (fun (u, v) -> Iset.mem u nodes && Iset.mem v nodes)
      (Ugraph.edges g)
  in
  let need = max 0 (Iset.cardinal nodes - 1) in
  let leaves_ok edges =
    let degree v =
      List.length (List.filter (fun (a, b) -> a = v || b = v) edges)
    in
    Iset.for_all (fun v -> Iset.mem v terminals || degree v >= 2) nodes
  in
  if Iset.cardinal nodes <= 1 then
    if Iset.subset nodes terminals then Some { nodes; edges = [] } else None
  else begin
    (* Choose [need] edges out of the induced edges; prune by count. *)
    let result = ref None in
    let rec choose chosen count = function
      | _ when !result <> None -> ()
      | [] ->
        if count = need && Spanning.tree_check g ~over:nodes chosen
           && leaves_ok chosen
        then result := Some { nodes; edges = chosen }
      | e :: rest ->
        if count + 1 + List.length rest >= need then begin
          if count < need then choose (e :: chosen) (count + 1) rest;
          if !result = None && count + List.length rest >= need then
            choose chosen count rest
        end
    in
    choose [] 0 all_edges;
    !result
  end

let prune_leaves ~keep t =
  let degree nodes v =
    List.length
      (List.filter
         (fun (a, b) -> (a = v || b = v) && Iset.mem a nodes && Iset.mem b nodes)
         t.edges)
  in
  let rec go nodes =
    let removable =
      Iset.filter
        (fun v -> (not (Iset.mem v keep)) && degree nodes v <= 1)
        nodes
    in
    if Iset.is_empty removable then nodes
    else go (Iset.diff nodes removable)
  in
  let nodes = go t.nodes in
  let edges =
    List.filter (fun (a, b) -> Iset.mem a nodes && Iset.mem b nodes) t.edges
  in
  { nodes; edges }

let pp ppf t =
  Format.fprintf ppf "@[<v>tree over %a" Iset.pp t.nodes;
  List.iter (fun (u, v) -> Format.fprintf ppf "@,  %d -- %d" u v) t.edges;
  Format.fprintf ppf "@]"
