open Graphs

(* Dual representation: the graph lives in whichever adjacency form it
   was built from — the set-based [Ugraph.t] or the flat [Csr.t] — and
   the other form is derived lazily on first use and cached. The
   mutable fields are caches only: both always describe the same
   graph, so a racy double-derivation writes equal values (benign under
   the runtime's atomic pointer writes) and every observable function
   is pure. At least one of the two is always [Some].

   This is what lets [Compiled.compile] take an edge stream to a CSR
   plan at n = 10^6 without ever materialising a million AVL sets,
   while the handful of set-based consumers (the solvers' tree
   extraction, the classifier on small per-component slices) force the
   set view only if and when they run. *)
type t = {
  nl : int;
  nr : int;
  mutable gset : Ugraph.t option;
  mutable gcsr : Csr.t option;
}

type side = V1 | V2
type node = L of int | R of int

let ugraph g =
  match g.gset with
  | Some u -> u
  | None -> (
    match g.gcsr with
    | Some c ->
      let u = Csr.to_ugraph c in
      g.gset <- Some u;
      u
    | None -> assert false)

let csr g =
  match g.gcsr with
  | Some c -> c
  | None -> (
    match g.gset with
    | Some u ->
      let c = Csr.of_ugraph u in
      g.gcsr <- Some c;
      c
    | None -> assert false)

let of_set ~nl ~nr u = { nl; nr; gset = Some u; gcsr = None }

let create ~nl ~nr =
  if nl < 0 || nr < 0 then invalid_arg "Bigraph.create";
  of_set ~nl ~nr (Ugraph.create (nl + nr))

let check_left g i =
  if i < 0 || i >= g.nl then invalid_arg "Bigraph: left index out of range"

let check_right g j =
  if j < 0 || j >= g.nr then invalid_arg "Bigraph: right index out of range"

let add_edge g i j =
  check_left g i;
  check_right g j;
  of_set ~nl:g.nl ~nr:g.nr (Ugraph.add_edge (ugraph g) i (g.nl + j))

let of_edges ~nl ~nr edges =
  if nl < 0 || nr < 0 then invalid_arg "Bigraph.of_edges";
  let b = Ugraph.Builder.create (nl + nr) in
  List.iter
    (fun (i, j) ->
      if i < 0 || i >= nl then invalid_arg "Bigraph: left index out of range";
      if j < 0 || j >= nr then invalid_arg "Bigraph: right index out of range";
      Ugraph.Builder.add_edge b i (nl + j))
    edges;
  of_set ~nl ~nr (Ugraph.Builder.build b)

let of_edge_iter ~nl ~nr iter =
  if nl < 0 || nr < 0 then invalid_arg "Bigraph.of_edge_iter";
  let c =
    Csr.of_edge_iter ~n:(nl + nr) (fun f ->
        iter (fun i j ->
            if i < 0 || i >= nl then
              invalid_arg "Bigraph: left index out of range";
            if j < 0 || j >= nr then
              invalid_arg "Bigraph: right index out of range";
            f i (nl + j)))
  in
  { nl; nr; gset = None; gcsr = Some c }

let of_csr ~nl ~nr c =
  if nl < 0 || nr < 0 then invalid_arg "Bigraph.of_csr";
  if Csr.n c <> nl + nr then invalid_arg "Bigraph.of_csr: size mismatch";
  for u = 0 to nl - 1 do
    Csr.iter_neighbors c u (fun v ->
        if v < nl then invalid_arg "Bigraph.of_csr: left-left edge")
  done;
  for v = nl to nl + nr - 1 do
    Csr.iter_neighbors c v (fun w ->
        if w >= nl then invalid_arg "Bigraph.of_csr: right-right edge")
  done;
  { nl; nr; gset = None; gcsr = Some c }

let of_bipartite_ugraph ~nl u =
  let n = Ugraph.n u in
  if nl < 0 || nl > n then invalid_arg "Bigraph.of_bipartite_ugraph";
  Ugraph.fold_edges
    (fun x y () ->
      if (x < nl) = (y < nl) then
        invalid_arg "Bigraph.of_bipartite_ugraph: edge within one side")
    u ();
  of_set ~nl ~nr:(n - nl) u

let remove_edge g i j =
  check_left g i;
  check_right g j;
  of_set ~nl:g.nl ~nr:g.nr (Ugraph.remove_edge (ugraph g) i (g.nl + j))

let nl g = g.nl
let nr g = g.nr
let n g = g.nl + g.nr

let m g =
  match g.gcsr with Some c -> Csr.m c | None -> Ugraph.m (ugraph g)

(* Canonical marshal form: keep only the CSR (its arrays are identical
   for any construction of the same graph, unlike AVL shapes), so
   serialized plans are byte-reproducible whatever mix of caches the
   live value accumulated. *)
let compact g = { nl = g.nl; nr = g.nr; gset = None; gcsr = Some (csr g) }

let index g = function
  | L i ->
    check_left g i;
    i
  | R j ->
    check_right g j;
    g.nl + j

let node_of_index g v =
  if v < 0 || v >= g.nl + g.nr then invalid_arg "Bigraph.node_of_index";
  if v < g.nl then L v else R (v - g.nl)

let side_of_index g v =
  match node_of_index g v with L _ -> V1 | R _ -> V2

let left_nodes g = Iset.range g.nl

let right_nodes g =
  Iset.of_list (List.init g.nr (fun j -> g.nl + j))

let nodes_of_side g = function V1 -> left_nodes g | V2 -> right_nodes g

let mem_edge g i j =
  check_left g i;
  check_right g j;
  match g.gcsr with
  | Some c -> Csr.mem_edge c i (g.nl + j)
  | None -> Ugraph.mem_edge (ugraph g) i (g.nl + j)

(* Per-node set access goes to whichever view is already cached: when
   only the CSR exists, one sorted row becomes one small set instead of
   forcing the whole set view. *)
let neighbors_underlying g v =
  match g.gset with
  | Some u -> Ugraph.neighbors u v
  | None -> Iset.of_list (Array.to_list (Csr.sorted_neighbors (csr g) v))

let right_neighbors g i =
  check_left g i;
  Iset.map (fun v -> v - g.nl) (neighbors_underlying g i)

let left_neighbors g j =
  check_right g j;
  neighbors_underlying g (g.nl + j)

let iter_edges g f =
  match g.gcsr with
  | Some c ->
    for i = 0 to g.nl - 1 do
      Csr.iter_neighbors c i (fun v -> f i (v - g.nl))
    done
  | None ->
    let u = ugraph g in
    for i = 0 to g.nl - 1 do
      Iset.iter (fun v -> f i (v - g.nl)) (Ugraph.neighbors u i)
    done

let edges g =
  let acc = ref [] in
  iter_edges g (fun i j -> acc := (i, j) :: !acc);
  List.rev !acc

let rebuild ~nl ~nr ~old_edges ~extra =
  (* Builder pass over the remapped edge list: O(n + m), the price of
     keeping the graph value immutable.  [old_edges] yields surviving
     edges of the old graph already remapped to the new index space,
     as underlying-index pairs. *)
  let b = Ugraph.Builder.create (nl + nr) in
  List.iter (fun (x, y) -> Ugraph.Builder.add_edge b x y) old_edges;
  List.iter (fun (x, y) -> Ugraph.Builder.add_edge b x y) extra;
  of_set ~nl ~nr (Ugraph.Builder.build b)

let add_relation g attrs =
  Iset.iter (fun i -> check_left g i) attrs;
  (* Rights live at the top of the index space, so a fresh relation
     appends at underlying index [nl + nr]: no existing index moves. *)
  let v = g.nl + g.nr in
  rebuild ~nl:g.nl ~nr:(g.nr + 1)
    ~old_edges:(Ugraph.edges (ugraph g))
    ~extra:(List.map (fun i -> (i, v)) (Iset.elements attrs))

let remove_relation g j =
  check_right g j;
  let v = g.nl + j in
  (* Underlying indices above [v] shift down by one; for the last
     relation ([j = nr - 1]) the remap is the identity. *)
  let remap x = if x > v then x - 1 else x in
  let old_edges =
    List.filter_map
      (fun (x, y) ->
        if x = v || y = v then None else Some (remap x, remap y))
      (Ugraph.edges (ugraph g))
  in
  rebuild ~nl:g.nl ~nr:(g.nr - 1) ~old_edges ~extra:[]

let induced g w =
  (* Renumbering is ascending, exactly as [Ugraph.induced]: every left
     index precedes every right index, so the result is again in
     bipartite layout with members below [nl] as the new lefts. The
     extraction runs over the CSR rows, so slicing one component out of
     a million-node schema costs the component, not the graph; a set
     spanning the whole graph renumbers by the identity and is the
     graph itself, so a connected schema pays no copy. *)
  let k = Iset.cardinal w in
  let ids = Array.make k 0 in
  ignore (Iset.fold (fun v i -> ids.(i) <- v; i + 1) w 0);
  if k = n g then (g, ids)
  else begin
    let nl' =
      let acc = ref 0 in
      Array.iter (fun v -> if v < g.nl then incr acc) ids;
      !acc
    in
    let sub = Csr.induced (csr g) ids in
    ({ nl = nl'; nr = k - nl'; gset = None; gcsr = Some sub }, ids)
  end

let flip g =
  let b = Ugraph.Builder.create (g.nl + g.nr) in
  iter_edges g (fun i j -> Ugraph.Builder.add_edge b (g.nr + i) j);
  of_set ~nl:g.nr ~nr:g.nl (Ugraph.Builder.build b)

let of_ugraph u =
  let n = Ugraph.n u in
  let color = Array.make n (-1) in
  let ok = ref true in
  let bfs s =
    color.(s) <- 0;
    let q = Queue.create () in
    Queue.add s q;
    while not (Queue.is_empty q) do
      let x = Queue.pop q in
      Iset.iter
        (fun y ->
          if color.(y) = -1 then begin
            color.(y) <- 1 - color.(x);
            Queue.add y q
          end
          else if color.(y) = color.(x) then ok := false)
        (Ugraph.neighbors u x)
    done
  in
  for s = 0 to n - 1 do
    if color.(s) = -1 then
      if Iset.is_empty (Ugraph.neighbors u s) then color.(s) <- 0 else bfs s
  done;
  if not !ok then None
  else begin
    let mapping = Array.make n (L 0) in
    let next_l = ref 0 and next_r = ref 0 in
    for v = 0 to n - 1 do
      if color.(v) = 0 then begin
        mapping.(v) <- L !next_l;
        incr next_l
      end
      else begin
        mapping.(v) <- R !next_r;
        incr next_r
      end
    done;
    let b = Ugraph.Builder.create (!next_l + !next_r) in
    List.iter
      (fun (x, y) ->
        match (mapping.(x), mapping.(y)) with
        | L i, R j | R j, L i -> Ugraph.Builder.add_edge b i (!next_l + j)
        | L _, L _ | R _, R _ -> assert false)
      (Ugraph.edges u);
    Some (of_set ~nl:!next_l ~nr:!next_r (Ugraph.Builder.build b), mapping)
  end

let is_connected g = Traverse.is_connected (ugraph g)

(* CSR arrays are canonical per graph, so comparing them is structural
   graph equality regardless of which representation either side was
   built from or what shape its AVL cache has. *)
let equal a b = a.nl = b.nl && a.nr = b.nr && Csr.equal (csr a) (csr b)

let pp_node ppf = function
  | L i -> Format.fprintf ppf "L%d" i
  | R j -> Format.fprintf ppf "R%d" j

let pp ppf g =
  Format.fprintf ppf "@[<v>bipartite %d+%d nodes, %d edges" g.nl g.nr (m g);
  List.iter (fun (i, j) -> Format.fprintf ppf "@,  L%d -- R%d" i j) (edges g);
  Format.fprintf ppf "@]"
