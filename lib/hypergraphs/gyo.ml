open Graphs

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
