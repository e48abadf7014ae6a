open Graphs

type forest = { order : int array; parent : int array }

(* Restricted maximum cardinality search on the incidence CSR: nodes
   below [boundary], hyperedge [i] at vertex [boundary + i].
   [bucket.(c)] holds unselected hyperedges with [c] marked nodes, plus
   stale entries skipped when popped. Selecting a hyperedge marks its
   unmarked nodes, and each marking pushes the node's unselected
   hyperedges one bucket up, so the search costs O(n + m).
   [marker.(v)] is the rank of the hyperedge that marked [v]. A
   hyperedge's already-marked nodes M(e) were marked by earlier
   hyperedges; R(e), the latest of those, is its parent, and the
   hypergraph is α-acyclic iff M(e) ⊆ R(e) for every e
   (Tarjan–Yannakakis 1984). The test stamps each parent's nodes once
   and checks all of its children against the stamp. *)
let incidence t ~boundary =
  let q = Csr.n t - boundary in
  let count = Array.make q 0 and selected = Bytes.make q '\000' in
  let bucket = Array.make (boundary + 1) [] in
  bucket.(0) <- List.init q Fun.id;
  let best = ref 0 in
  let rec pop () =
    match bucket.(!best) with
    | [] -> decr best; pop ()
    | i :: rest ->
      bucket.(!best) <- rest;
      if Bytes.get selected i = '\000' && count.(i) = !best then i else pop ()
  in
  let marker = Array.make boundary (-1) in
  let order = Array.make q 0 and parent = Array.make q (-1) in
  (* Each parent's children, as a list threaded through [sibling]. *)
  let first_child = Array.make q (-1) and sibling = Array.make q (-1) in
  for r = 0 to q - 1 do
    let i = pop () in
    Bytes.set selected i '\001';
    order.(r) <- i;
    let e = boundary + i in
    let latest =
      Csr.fold_neighbors t e
        (fun latest v -> if marker.(v) > latest then marker.(v) else latest)
        (-1)
    in
    if latest >= 0 then begin
      let p = order.(latest) in
      parent.(i) <- p;
      sibling.(i) <- first_child.(p);
      first_child.(p) <- i
    end;
    Csr.iter_neighbors t e (fun v ->
        if marker.(v) < 0 then begin
          marker.(v) <- r;
          Csr.iter_neighbors t v (fun f ->
              let j = f - boundary in
              if Bytes.get selected j = '\000' then begin
                count.(j) <- count.(j) + 1;
                bucket.(count.(j)) <- j :: bucket.(count.(j));
                if count.(j) > !best then best := count.(j)
              end)
        end)
  done;
  (* One stamp per parent: [stamp.(v)] is the last parent stamped that
     holds [v]. A node of child [c] is in M(c) unless [c] marked it. *)
  let stamp = Array.make boundary (-1) in
  let contained p c =
    Csr.for_all_neighbors t (boundary + c) (fun v ->
        order.(marker.(v)) = c || stamp.(v) = p)
  in
  let ok = ref true in
  for p = 0 to q - 1 do
    if !ok && first_child.(p) >= 0 then begin
      Csr.iter_neighbors t (boundary + p) (fun v -> stamp.(v) <- p);
      let c = ref first_child.(p) in
      while !ok && !c >= 0 do
        ok := contained p !c;
        c := sibling.(!c)
      done
    end
  done;
  if !ok then Some { order; parent } else None

let run h =
  let t, boundary = Hypergraph.incidence_csr h in
  incidence t ~boundary

let alpha_acyclic h = Option.is_some (run h)

let join_tree h =
  Option.map (fun f -> Join_tree.make h ~parent:f.parent) (run h)

let rip_ordering h = Option.map (fun f -> Array.to_list f.order) (run h)
