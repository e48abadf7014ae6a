(* Maximum cardinality search with a bucket queue (Tarjan–Yannakakis
   1984). [weight.(v)] counts the visited neighbors of an unvisited
   [v] and is -1 once [v] is visited; bucket [w] is a doubly linked
   list of the unvisited nodes of weight [w], threaded through [next]
   and [prev]. A visit moves each unvisited neighbor one bucket up, so
   the search costs O(n + m). Buckets are filled so that the smallest
   id heads bucket 0. *)
let mcs_csr t =
  let n = Csr.n t in
  let weight = Array.make n 0 in
  let head = Array.make (n + 1) (-1) in
  let next = Array.make n (-1) and prev = Array.make n (-1) in
  let push v w =
    let h = head.(w) in
    next.(v) <- h;
    prev.(v) <- -1;
    if h >= 0 then prev.(h) <- v;
    head.(w) <- v
  in
  let unlink v w =
    if prev.(v) >= 0 then next.(prev.(v)) <- next.(v) else head.(w) <- next.(v);
    if next.(v) >= 0 then prev.(next.(v)) <- prev.(v)
  in
  for v = n - 1 downto 0 do
    push v 0
  done;
  let order = Array.make n 0 in
  let best = ref 0 in
  for i = 0 to n - 1 do
    while head.(!best) < 0 do
      decr best
    done;
    let v = head.(!best) in
    unlink v !best;
    weight.(v) <- -1;
    order.(i) <- v;
    Csr.iter_neighbors t v (fun u ->
        let w = weight.(u) in
        if w >= 0 then begin
          unlink u w;
          weight.(u) <- w + 1;
          push u (w + 1);
          if w + 1 > !best then best := w + 1
        end)
  done;
  order

(* The zero fill-in test of Tarjan–Yannakakis: [peo] is a permutation
   of the CSR's nodes, eliminated first first. Walking it in order,
   each node [w] marks its earlier neighbors [v] with its rank and
   becomes the follower of those that had none yet; [v]'s follower is
   then its earliest later neighbor, which must see every other later
   neighbor of [v] (Rose–Tarjan–Lueker). O(n + m). A failure is
   returned as [(v, f, w)]: [f] and [w] are later neighbors of [v] and
   not adjacent. *)
let peo_violation t peo =
  let n = Csr.n t in
  let pos = Array.make n 0 in
  Array.iteri (fun i v -> pos.(v) <- i) peo;
  let follower = Array.make n 0 and index = Array.make n 0 in
  let bad = ref None and i = ref 0 in
  while Option.is_none !bad && !i < n do
    let r = !i in
    let w = peo.(r) in
    follower.(w) <- w;
    index.(w) <- r;
    Csr.iter_neighbors t w (fun v ->
        if pos.(v) < r then begin
          index.(v) <- r;
          if follower.(v) = v then follower.(v) <- w
        end);
    ignore
      (Csr.for_all_neighbors t w (fun v ->
           pos.(v) > r
           || index.(follower.(v)) = r
           ||
           (bad := Some (v, follower.(v), w);
            false)));
    incr i
  done;
  !bad

let reversed a =
  let n = Array.length a in
  Array.init n (fun i -> a.(n - 1 - i))

let is_peo_csr t peo = Option.is_none (peo_violation t peo)

let is_chordal_csr t = is_peo_csr t (reversed (mcs_csr t))

(* Tarjan and Yannakakis (SIAM J. Comput. 13(3), 1984): when the zero
   fill-in test of an MCS order fails at (v, f, w), f and w are joined
   by a path avoiding v's other neighbors, and a shortest one closes a
   chordless cycle through v. BFS from [f] with N[v] \ {f, w} blocked;
   a missing path means a broken MCS order, not a chordal graph. *)
let chordless_cycle_csr t =
  match peo_violation t (reversed (mcs_csr t)) with
  | None -> None
  | Some (v, f, w) ->
    let n = Csr.n t in
    let parent = Array.make n (-2) in
    parent.(v) <- -1;
    Csr.iter_neighbors t v (fun u -> parent.(u) <- -1);
    parent.(f) <- f;
    parent.(w) <- -2;
    let queue = Array.make n 0 in
    queue.(0) <- f;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail && parent.(w) = -2 do
      let x = queue.(!head) in
      incr head;
      Csr.iter_neighbors t x (fun y ->
          if parent.(y) = -2 then begin
            parent.(y) <- x;
            queue.(!tail) <- y;
            incr tail
          end)
    done;
    if parent.(w) = -2 then
      failwith "Chordal.chordless_cycle_csr: no f-w path (not an MCS order)";
    let rec back x acc = if x = f then f :: acc else back parent.(x) (x :: acc) in
    Some (v :: back w [])

(* One CSR of [g] induced on [w], node [ids.(i)] renumbered [i], with
   [local] the inverse map (-1 outside [w]). *)
let slice g w =
  let ids = Array.of_list (Iset.elements w) in
  let local = Array.make (Ugraph.n g) (-1) in
  Array.iteri (fun i v -> local.(v) <- i) ids;
  let add_all add =
    Array.iteri
      (fun i v ->
        Iset.iter
          (fun u -> if local.(u) > i then add i local.(u))
          (Ugraph.neighbors g v))
      ids
  in
  (Csr.of_edge_iter ~n:(Array.length ids) add_all, ids, local)

let mcs_order ?within g =
  let t, ids, _ = slice g (Ugraph.default_within g within) in
  Array.to_list (Array.map (fun i -> ids.(i)) (mcs_csr t))

let is_perfect_elimination_order ?within g order =
  let w = Ugraph.default_within g within in
  Iset.equal w (Iset.of_list order)
  && List.length order = Iset.cardinal w
  &&
  let t, _, local = slice g w in
  is_peo_csr t (Array.of_list (List.map (fun v -> local.(v)) order))

let perfect_elimination_order ?within g =
  let t, ids, _ = slice g (Ugraph.default_within g within) in
  let peo = reversed (mcs_csr t) in
  if is_peo_csr t peo then Some (Array.to_list (Array.map (fun i -> ids.(i)) peo))
  else None

let is_chordal ?within g =
  let t, _, _ = slice g (Ugraph.default_within g within) in
  is_chordal_csr t

let is_chordal_brute ?within g =
  let w = Ugraph.default_within g within in
  let sub, _ = Ugraph.induced g w in
  not (Cycles.exists_cycle_with_few_chords sub ~min_len:4 ~max_chords:0)

let simplicial_nodes ?within g =
  let w = Ugraph.default_within g within in
  Iset.filter (fun v -> Ugraph.is_clique g (Ugraph.adj_within g ~within:w v)) w
