(* Test oracle: the Graham / Yu–Özsoyoğlu (GYO) reduction, the
   classical test for α-acyclicity. It repeatedly (a) deletes nodes
   that belong to exactly one remaining edge and (b) deletes edges
   contained in another remaining edge; a hypergraph is α-acyclic iff
   the reduction deletes every edge. Each round recounts occurrences
   and compares every pair of edges, so the library never runs it: the
   MCS kernel ([Hypergraphs.Mcs]) decides α and builds join trees, and
   [Acyclicity.why_not] draws its witnesses from the 2-section's
   chordality test and Gilmore's criterion. It stays here as an
   independent oracle for those. *)

open Graphs
open Hypergraphs

(* [survivors]: shrunken content of the edges; [surviving_edges]:
   original indices still present; [parent]: for each original edge,
   the edge it was absorbed into, or [-1] if it survived or was
   emptied last. *)
type trace = {
  survivors : Iset.t array;
  surviving_edges : int list;
  parent : int array;
}

let run h =
  let q = Hypergraph.n_edges h in
  let content = Hypergraph.edges h in
  let alive = Array.make q true in
  let parent = Array.make q (-1) in
  let changed = ref true in
  while !changed do
    changed := false;
    (* (a) Delete nodes occurring in exactly one remaining edge. *)
    let occurrences = Hashtbl.create 16 in
    Array.iteri
      (fun i e ->
        if alive.(i) then
          Iset.iter
            (fun v ->
              let c =
                match Hashtbl.find_opt occurrences v with
                | Some c -> c
                | None -> 0
              in
              Hashtbl.replace occurrences v (c + 1))
            e)
      content;
    Array.iteri
      (fun i e ->
        if alive.(i) then begin
          let e' =
            Iset.filter (fun v -> Hashtbl.find occurrences v > 1) e
          in
          if not (Iset.equal e e') then begin
            content.(i) <- e';
            changed := true
          end
        end)
      content;
    (* (b) Delete edges contained in another remaining edge; an emptied
       edge becomes a root of its own. *)
    for i = 0 to q - 1 do
      if alive.(i) then
        if Iset.is_empty content.(i) then begin
          alive.(i) <- false;
          parent.(i) <- -1;
          changed := true
        end
        else begin
          let absorber = ref (-1) in
          for j = 0 to q - 1 do
            if !absorber < 0 && j <> i && alive.(j)
               && Iset.subset content.(i) content.(j)
            then absorber := j
          done;
          if !absorber >= 0 then begin
            alive.(i) <- false;
            parent.(i) <- !absorber;
            changed := true
          end
        end
    done
  done;
  let surviving_edges =
    List.filter (fun i -> alive.(i)) (List.init q (fun i -> i))
  in
  { survivors = content; surviving_edges; parent }

let alpha_acyclic h = (run h).surviving_edges = []

(* [Acyclicity.why_not h Alpha_acyclic] is present exactly when GYO
   fails, and real: a chordless cycle of the 2-section (length at least
   4, distinct nodes, consecutive nodes adjacent, no chord) or an edge
   triple i < j < k whose pairwise intersections lie in no single edge
   (Gilmore's criterion, by definition). *)
let alpha_witness_holds h =
  match Acyclicity.why_not h Acyclicity.Alpha_acyclic with
  | None -> alpha_acyclic h
  | Some (Acyclicity.Chordless_cycle cycle) ->
    (not (alpha_acyclic h))
    && Reference_sets.is_chordless_cycle (Hypergraph.two_section h) cycle
  | Some (Acyclicity.Gilmore_triple (i, j, k)) ->
    let e = Hypergraph.edges h in
    let q = Array.length e in
    (not (alpha_acyclic h))
    && 0 <= i && i < j && j < k && k < q
    &&
    let union =
      Iset.union
        (Iset.inter e.(i) e.(j))
        (Iset.union (Iset.inter e.(j) e.(k)) (Iset.inter e.(i) e.(k)))
    in
    not (Array.exists (fun f -> Iset.subset union f) e)
  | Some _ -> false
