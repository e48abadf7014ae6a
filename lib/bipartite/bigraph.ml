open Graphs

(* One adjacency form: the graph is its CSR on [nl + nr] underlying
   nodes, right node [j] at index [nl + j]. The record is immutable, so
   every constructor and every edit builds a fresh CSR; the set view is
   derived per call by [ugraph]. *)
type t = { nl : int; nr : int; csr : Csr.t }

type side = V1 | V2
type node = L of int | R of int

let ugraph g = Csr.to_ugraph g.csr
let csr g = g.csr

let check_left g i =
  if i < 0 || i >= g.nl then invalid_arg "Bigraph: left index out of range"

let check_right g j =
  if j < 0 || j >= g.nr then invalid_arg "Bigraph: right index out of range"

let of_edge_iter ~nl ~nr iter =
  if nl < 0 || nr < 0 then invalid_arg "Bigraph.of_edge_iter";
  let csr =
    Csr.of_edge_iter ~n:(nl + nr) (fun f ->
        iter (fun i j ->
            if i < 0 || i >= nl then
              invalid_arg "Bigraph: left index out of range";
            if j < 0 || j >= nr then
              invalid_arg "Bigraph: right index out of range";
            f i (nl + j)))
  in
  { nl; nr; csr }

let of_edges ~nl ~nr edges =
  of_edge_iter ~nl ~nr (fun f -> List.iter (fun (i, j) -> f i j) edges)

let create ~nl ~nr = of_edges ~nl ~nr []

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
  { nl; nr; csr = c }

let of_bipartite_ugraph ~nl u =
  let n = Ugraph.n u in
  if nl < 0 || nl > n then invalid_arg "Bigraph.of_bipartite_ugraph";
  of_csr ~nl ~nr:(n - nl) (Csr.of_ugraph u)

let nl g = g.nl
let nr g = g.nr
let n g = g.nl + g.nr
let m g = Csr.m g.csr

(* One visitor closure for the whole sweep rather than one per row:
   [edges] and [flip] stream every edge through here, and a per-row
   closure would allocate in proportion to [nl] each time. *)
let iter_edges g f =
  let i = ref 0 in
  let visit v = f !i (v - g.nl) in
  for r = 0 to g.nl - 1 do
    i := r;
    Csr.iter_neighbors g.csr r visit
  done

(* The four edits share one CSR splice: the rows they touch are merged
   and the rest of the schema is copied as it stands, never re-sorted.
   Pairs are (left, underlying right). *)
let splice ?drop g ~nr ~add ~remove =
  { g with nr; csr = Csr.splice ?drop g.csr ~n:(g.nl + nr) ~add ~remove }

let add_edge g i j =
  check_left g i;
  check_right g j;
  splice g ~nr:g.nr ~add:[ (i, g.nl + j) ] ~remove:[]

let remove_edge g i j =
  check_left g i;
  check_right g j;
  splice g ~nr:g.nr ~add:[] ~remove:[ (i, g.nl + j) ]

let add_relation g attrs =
  Iset.iter (fun i -> check_left g i) attrs;
  (* Rights live at the top of the index space, so a fresh relation
     appends at underlying index [nl + nr]: no existing index moves. *)
  let v = n g in
  splice g ~nr:(g.nr + 1)
    ~add:(Iset.fold (fun i acc -> (i, v) :: acc) attrs [])
    ~remove:[]

let remove_relation g j =
  check_right g j;
  (* Right indices above [j] shift down by one; for the last relation
     ([j = nr - 1]) nothing shifts. *)
  splice ~drop:(g.nl + j) g ~nr:(g.nr - 1) ~add:[] ~remove:[]

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

let left_nodes g = Iset.range g.nl

let right_nodes g =
  Iset.of_list (List.init g.nr (fun j -> g.nl + j))

let nodes_of_side g = function V1 -> left_nodes g | V2 -> right_nodes g

let mem_edge g i j =
  check_left g i;
  check_right g j;
  Csr.mem_edge g.csr i (g.nl + j)

(* One sorted row becomes one small set; the whole-graph set view is
   never built for per-node access. *)
let neighbors_underlying g v =
  Iset.of_list (Array.to_list (Csr.sorted_neighbors g.csr v))

let right_neighbors g i =
  check_left g i;
  Iset.map (fun v -> v - g.nl) (neighbors_underlying g i)

let left_neighbors g j =
  check_right g j;
  neighbors_underlying g (g.nl + j)

let edges g =
  let acc = ref [] in
  iter_edges g (fun i j -> acc := (i, j) :: !acc);
  List.rev !acc

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
    ({ nl = nl'; nr = k - nl'; csr = Csr.induced g.csr ids }, ids)
  end

(* [induced] on a component of the layout, cut by [Csr.slice]: the
   segment is ascending, so its members below [nl] (the new lefts) come
   first. *)
let slice g cs ~local c =
  let csr = Csr.slice g.csr cs ~local c in
  if csr == g.csr then g
  else begin
    let lo = cs.Csr.start.(c) and hi = cs.Csr.start.(c + 1) in
    let i = ref lo in
    while !i < hi && cs.Csr.order.(!i) < g.nl do
      incr i
    done;
    { nl = !i - lo; nr = hi - !i; csr }
  end

let flip g =
  let csr =
    Csr.of_edge_iter ~n:(n g) (fun f ->
        iter_edges g (fun i j -> f (g.nr + i) j))
  in
  { nl = g.nr; nr = g.nl; csr }

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
    let nl = !next_l in
    let underlying = function L i -> i | R j -> nl + j in
    let csr =
      Csr.of_edge_iter ~n (fun f ->
          Ugraph.fold_edges
            (fun x y () -> f (underlying mapping.(x)) (underlying mapping.(y)))
            u ())
    in
    Some ({ nl; nr = !next_r; csr }, mapping)
  end

let is_connected g = Csr.n_components (Csr.components g.csr) <= 1

let equal a b = a.nl = b.nl && a.nr = b.nr && Csr.equal a.csr b.csr

let pp_node ppf = function
  | L i -> Format.fprintf ppf "L%d" i
  | R j -> Format.fprintf ppf "R%d" j

let pp ppf g =
  Format.fprintf ppf "@[<v>bipartite %d+%d nodes, %d edges" g.nl g.nr (m g);
  List.iter (fun (i, j) -> Format.fprintf ppf "@,  L%d -- R%d" i j) (edges g);
  Format.fprintf ppf "@]"
