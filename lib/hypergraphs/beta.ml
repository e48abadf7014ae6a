open Graphs

let is_nest_point h v =
  let incident = Iset.elements (Hypergraph.incident h v) in
  let contents = List.map (Hypergraph.edge h) incident in
  let sorted = List.sort (fun a b -> compare (Iset.cardinal a) (Iset.cardinal b)) contents in
  let rec chain = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> Iset.subset a b && chain rest
  in
  chain sorted

(* Nest-point elimination on the incidence CSR: nodes below
   [boundary], hyperedges above it. [size.(e - boundary)] is hyperedge
   [e]'s live size. A live node's hyperedges all stay live, so its row
   lists exactly the edges it is in, and it is a nest point when they
   form a chain once sorted by live size. When a test fails on two
   consecutive edges [a] and [b], [a] is no larger than [b] and not
   inside it, so each has a live node outside the other. Node
   deletion only shrinks edges, so the two stay incomparable, and the
   tested node stays blocked, until one of those two nodes goes: the
   node waits in both [watchers] lists and is queued again only when
   one of them is deleted. A deletion so re-tests a few nodes within
   distance 2 and never rescans the edges through it. [eliminated v]
   sees every deletion, in order; the result tells whether every
   covered node went. *)
let eliminate t ~boundary eliminated =
  let size =
    Array.init (Csr.n t - boundary) (fun i -> Csr.degree t (boundary + i))
  in
  let alive = Bytes.make boundary '\001' in
  let is_alive v = Bytes.get alive v <> '\000' in
  let queued = Bytes.make boundary '\000' in
  let queue = Array.make (max boundary 1) 0 in
  let first = ref 0 and count = ref 0 in
  let enqueue v =
    if is_alive v && Bytes.get queued v = '\000' then begin
      Bytes.set queued v '\001';
      queue.((!first + !count) mod boundary) <- v;
      incr count
    end
  in
  let remaining = ref 0 in
  for v = 0 to boundary - 1 do
    if Csr.degree t v > 0 then begin
      incr remaining;
      enqueue v
    end
  done;
  let watchers = Array.make boundary [] in
  (* A live node of edge [a] outside edge [b], or -1. *)
  let outside a b =
    let w = ref (-1) in
    ignore
      (Csr.for_all_neighbors t a (fun u ->
           (not (is_alive u)) || Csr.mem_edge t b u || (w := u; false)));
    !w
  in
  let nest v =
    Csr.degree t v <= 1
    ||
    let es = Csr.sorted_neighbors t v in
    Array.sort
      (fun a b -> compare size.(a - boundary) size.(b - boundary))
      es;
    let rec chain i =
      i + 1 >= Array.length es
      ||
      let w = outside es.(i) es.(i + 1) in
      if w < 0 then chain (i + 1)
      else begin
        let w' = outside es.(i + 1) es.(i) in
        watchers.(w) <- v :: watchers.(w);
        watchers.(w') <- v :: watchers.(w');
        false
      end
    in
    chain 0
  in
  while !count > 0 do
    let v = queue.(!first) in
    first := (!first + 1) mod boundary;
    decr count;
    Bytes.set queued v '\000';
    if nest v then begin
      Bytes.set alive v '\000';
      decr remaining;
      eliminated v;
      Csr.iter_neighbors t v (fun e ->
          size.(e - boundary) <- size.(e - boundary) - 1);
      List.iter enqueue watchers.(v);
      watchers.(v) <- []
    end
  done;
  !remaining = 0

let acyclic_incidence t ~boundary = eliminate t ~boundary ignore

let elimination_order_incidence t ~boundary =
  let order = ref [] in
  if eliminate t ~boundary (fun v -> order := v :: !order) then
    Some (List.rev !order)
  else None

let elimination_order h =
  let t, boundary = Hypergraph.incidence_csr h in
  elimination_order_incidence t ~boundary

let acyclic h =
  let t, boundary = Hypergraph.incidence_csr h in
  acyclic_incidence t ~boundary

let guarded_node_ordering h =
  let covered = Array.of_list (Iset.elements (Hypergraph.covered_nodes h)) in
  match Mcs.rip_ordering (Hypergraph.dual h) with
  | None -> None
  | Some dual_order -> Some (List.map (fun i -> covered.(i)) dual_order)

let is_guarded_node_ordering h order =
  let covered = Hypergraph.covered_nodes h in
  Iset.equal covered (Iset.of_list order)
  && List.length order = Iset.cardinal covered
  &&
  let rec go earlier = function
    | [] -> true
    | ni :: rest ->
      let guarded =
        earlier = []
        ||
        let edges_with_ni_and_earlier =
          Iset.filter
            (fun e ->
              not
                (Iset.is_empty
                   (Iset.inter (Hypergraph.edge h e) (Iset.of_list earlier))))
            (Hypergraph.incident h ni)
        in
        Iset.is_empty edges_with_ni_and_earlier
        || List.exists
             (fun nj ->
               Iset.for_all
                 (fun e -> Iset.mem nj (Hypergraph.edge h e))
                 edges_with_ni_and_earlier)
             earlier
      in
      guarded && go (ni :: earlier) rest
  in
  go [] order

(* Brute-force β-cycle search, directly from Definition 6: a cyclic
   sequence of q >= 3 distinct edges where every consecutive
   intersection contains a node pure to that consecutive pair (in no
   other edge of the cycle). *)
let find_beta_cycle ?max_q h =
  let q_edges = Hypergraph.n_edges h in
  let bound = match max_q with Some b -> min b q_edges | None -> q_edges in
  let result = ref None in
  let check_arrangement arr =
    let q = Array.length arr in
    let others i j =
      (* union of the cycle's edges except positions i and j *)
      let acc = ref Iset.empty in
      Array.iteri
        (fun k e -> if k <> i && k <> j then acc := Iset.union !acc (Hypergraph.edge h e))
        arr;
      !acc
    in
    let pure i =
      let j = (i + 1) mod q in
      Iset.diff
        (Iset.inter (Hypergraph.edge h arr.(i)) (Hypergraph.edge h arr.(j)))
        (others i j)
    in
    let pures = List.init q pure in
    if List.for_all (fun s -> not (Iset.is_empty s)) pures then
      result := Some (Array.to_list arr, pures)
  in
  (* Enumerate arrangements: first element is the smallest chosen index;
     remaining positions are filled by DFS over larger-or-equal ids, and
     mirror-image duplicates are skipped via second < last. *)
  let rec fill first used acc len =
    if !result <> None then ()
    else if len >= 3 then begin
      let arr = Array.of_list (List.rev acc) in
      if arr.(1) < arr.(len - 1) then check_arrangement arr
    end;
    if !result = None && len < bound then
      for e = first + 1 to q_edges - 1 do
        if (not (List.mem e used)) && !result = None then
          fill first (e :: used) (e :: acc) (len + 1)
      done
  in
  for first = 0 to q_edges - 1 do
    if !result = None then fill first [ first ] [ first ] 1
  done;
  !result
