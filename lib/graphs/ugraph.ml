type t = { size : int; adj : Iset.t array; nedges : int }

let create size =
  if size < 0 then invalid_arg "Ugraph.create: negative size";
  { size; adj = Array.make size Iset.empty; nedges = 0 }

let check_endpoint g u =
  if u < 0 || u >= g.size then invalid_arg "Ugraph: node out of range"

let mem_edge g u v =
  check_endpoint g u;
  check_endpoint g v;
  Iset.mem v g.adj.(u)

let add_edge g u v =
  check_endpoint g u;
  check_endpoint g v;
  if u = v then invalid_arg "Ugraph.add_edge: self-loop";
  if Iset.mem v g.adj.(u) then g
  else begin
    let adj = Array.copy g.adj in
    adj.(u) <- Iset.add v adj.(u);
    adj.(v) <- Iset.add u adj.(v);
    { g with adj; nedges = g.nedges + 1 }
  end

let remove_edge g u v =
  check_endpoint g u;
  check_endpoint g v;
  if not (Iset.mem v g.adj.(u)) then g
  else begin
    let adj = Array.copy g.adj in
    adj.(u) <- Iset.remove v adj.(u);
    adj.(v) <- Iset.remove u adj.(v);
    { g with adj; nedges = g.nedges - 1 }
  end

let n g = g.size
let m g = g.nedges

let neighbors g u =
  check_endpoint g u;
  g.adj.(u)

let degree g u = Iset.cardinal (neighbors g u)
let nodes g = Iset.range g.size

let default_within g = function Some w -> w | None -> nodes g

let fold_edges f g acc =
  let acc = ref acc in
  for u = 0 to g.size - 1 do
    Iset.iter (fun v -> if u < v then acc := f u v !acc) g.adj.(u)
  done;
  !acc

let edges g = List.rev (fold_edges (fun u v l -> (u, v) :: l) g [])

let adj_within g ~within u = Iset.inter (neighbors g u) within

let private_neighbors g ~within v =
  let candidates = Iset.inter g.adj.(v) within in
  let only_v u =
    Iset.for_all (fun w -> w = v || not (Iset.mem w within)) g.adj.(u)
  in
  Iset.filter only_v candidates

module Builder = struct
  type t = { bsize : int; badj : Iset.t array; mutable bm : int }

  let create bsize =
    if bsize < 0 then invalid_arg "Ugraph.Builder.create: negative size";
    { bsize; badj = Array.make bsize Iset.empty; bm = 0 }

  let add_edge b u v =
    if u < 0 || u >= b.bsize || v < 0 || v >= b.bsize then
      invalid_arg "Ugraph.Builder.add_edge: node out of range";
    if u = v then invalid_arg "Ugraph.Builder.add_edge: self-loop";
    if not (Iset.mem v b.badj.(u)) then begin
      b.badj.(u) <- Iset.add v b.badj.(u);
      b.badj.(v) <- Iset.add u b.badj.(v);
      b.bm <- b.bm + 1
    end

  let build b = { size = b.bsize; adj = Array.copy b.badj; nedges = b.bm }
end

let of_edges ~n edges =
  let b = Builder.create n in
  List.iter (fun (u, v) -> Builder.add_edge b u v) edges;
  Builder.build b

(* Trusted O(1) constructor for callers that already hold a coherent
   adjacency (Csr.to_ugraph): the array is adopted, not copied. *)
let of_adjacency adj ~m = { size = Array.length adj; adj; nedges = m }

let induced g w =
  let ids = Array.of_list (Iset.elements w) in
  let back = Hashtbl.create (Array.length ids) in
  Array.iteri (fun i v -> Hashtbl.replace back v i) ids;
  let b = Builder.create (Array.length ids) in
  Array.iteri
    (fun i v ->
      Iset.iter
        (fun u ->
          match Hashtbl.find_opt back u with
          | Some j when i < j -> Builder.add_edge b i j
          | Some _ | None -> ())
        g.adj.(v))
    ids;
  (Builder.build b, ids)

let is_clique g w =
  Iset.for_all
    (fun u -> Iset.for_all (fun v -> u = v || Iset.mem v g.adj.(u)) w)
    w

let complement g =
  let b = Builder.create g.size in
  for u = 0 to g.size - 1 do
    for v = u + 1 to g.size - 1 do
      if not (Iset.mem v g.adj.(u)) then Builder.add_edge b u v
    done
  done;
  Builder.build b

let equal g h =
  g.size = h.size && g.nedges = h.nedges
  && Array.for_all2 Iset.equal g.adj h.adj

let pp ppf g =
  Format.fprintf ppf "@[<v>graph on %d nodes, %d edges" g.size g.nedges;
  List.iter (fun (u, v) -> Format.fprintf ppf "@,  %d -- %d" u v) (edges g);
  Format.fprintf ppf "@]"
