let is_acyclic ?within g =
  let w = Ugraph.default_within g within in
  let edge_count =
    Iset.fold
      (fun u acc -> acc + Iset.cardinal (Ugraph.adj_within g ~within:w u))
      w 0
    / 2
  in
  let ncomp = List.length (Traverse.components ~within:w g) in
  edge_count = Iset.cardinal w - ncomp

let find_cycle ?within g =
  let w = Ugraph.default_within g within in
  let color = Array.make (Ugraph.n g) 0 in
  let parent = Array.make (Ugraph.n g) (-1) in
  let result = ref None in
  let rec dfs u =
    color.(u) <- 1;
    Iset.iter
      (fun v ->
        if !result = None && v <> parent.(u) then
          if color.(v) = 1 then begin
            (* Back edge: walk parents from u back to v. *)
            let rec collect x acc =
              if x = v then v :: acc else collect parent.(x) (x :: acc)
            in
            result := Some (collect u [])
          end
          else if color.(v) = 0 then begin
            parent.(v) <- u;
            dfs v
          end)
      (Ugraph.adj_within g ~within:w u);
    color.(u) <- 2
  in
  Iset.iter (fun s -> if color.(s) = 0 && !result = None then dfs s) w;
  !result

let iter_simple_cycles ?within ?(min_len = 3) ?max_len g f =
  let w = Ugraph.default_within g within in
  let bound = match max_len with Some b -> b | None -> Iset.cardinal w in
  let on_path = Array.make (Ugraph.n g) false in
  (* Paths start at the cycle's smallest node [s] and may only use nodes
     greater than [s]; a cycle is reported when the path closes back on
     [s]. To report each cycle once (not once per direction), we require
     the second node of the path to be smaller than the node preceding
     the closing edge. *)
  let rec extend s path len last =
    Iset.iter
      (fun v ->
        if v = s && len >= max 3 min_len then begin
          match List.rev path with
          | _ :: second :: _ when second < last -> f (List.rev path)
          | _ -> ()
        end
        else if v > s && (not on_path.(v)) && len < bound then begin
          on_path.(v) <- true;
          extend s (v :: path) (len + 1) v;
          on_path.(v) <- false
        end)
      (Ugraph.adj_within g ~within:w last)
  in
  Iset.iter
    (fun s ->
      on_path.(s) <- true;
      extend s [ s ] 1 s;
      on_path.(s) <- false)
    w

let simple_cycles ?within ?min_len ?max_len g =
  let acc = ref [] in
  iter_simple_cycles ?within ?min_len ?max_len g (fun c -> acc := c :: !acc);
  List.rev !acc

let chords g cycle =
  let arr = Array.of_list cycle in
  let k = Array.length arr in
  let acc = ref [] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let consecutive = j = i + 1 || (i = 0 && j = k - 1) in
      if (not consecutive) && Ugraph.mem_edge g arr.(i) arr.(j) then
        acc := (arr.(i), arr.(j)) :: !acc
    done
  done;
  List.rev !acc

(* CSR kernel for the same witness search. Paths start at the cycle's
   smallest node [s] and only use nodes greater than [s]; the chord
   count is maintained incrementally so branches that already exceed
   [max_chords] are pruned: an edge from the new path node to any
   earlier path node other than its predecessor or [s] stays
   non-consecutive in every cycle completing the path, hence is a chord
   of all of them. Chords incident to [s] are charged when the cycle
   closes ([s]'s cycle neighbors are the second and the last node). *)
let exists_cycle_with_few_chords g ~min_len ~max_chords =
  let csr = Csr.of_ugraph g in
  let n = Ugraph.n g in
  let min_len = max 3 min_len in
  let on_path = Array.make n false in
  let posn = Array.make n (-1) in
  let exception Found in
  let rec extend s depth last nchords =
    Csr.iter_neighbors csr last (fun v ->
        if v = s && depth >= min_len then begin
          let s_chords = ref 0 in
          Csr.iter_neighbors csr s (fun u ->
              if on_path.(u) && posn.(u) >= 2 && posn.(u) <= depth - 2 then
                incr s_chords);
          if nchords + !s_chords <= max_chords then raise Found
        end
        else if v > s && not on_path.(v) then begin
          let extra = ref 0 in
          Csr.iter_neighbors csr v (fun u ->
              if on_path.(u) && u <> last && u <> s then incr extra);
          let nchords = nchords + !extra in
          if nchords <= max_chords then begin
            on_path.(v) <- true;
            posn.(v) <- depth;
            extend s (depth + 1) v nchords;
            on_path.(v) <- false;
            posn.(v) <- -1
          end
        end)
  in
  try
    for s = 0 to n - 1 do
      on_path.(s) <- true;
      posn.(s) <- 0;
      extend s 1 s 0;
      on_path.(s) <- false;
      posn.(s) <- -1
    done;
    false
  with Found -> true

let girth ?within g =
  let w = Ugraph.default_within g within in
  (* For each edge (u, v): shortest cycle through that edge is
     1 + distance from u to v in the graph without that edge. *)
  let best = ref max_int in
  Iset.iter
    (fun u ->
      Iset.iter
        (fun v ->
          if u < v then begin
            let g' = Ugraph.remove_edge g u v in
            match Traverse.distance ~within:w g' u v with
            | Some d when d + 1 < !best -> best := d + 1
            | Some _ | None -> ()
          end)
        (Ugraph.adj_within g ~within:w u))
    w;
  if !best = max_int then None else Some !best
