let bfs ?within g s =
  let w = Ugraph.default_within g within in
  let dist = Array.make (Ugraph.n g) (-1) in
  if Iset.mem s w then begin
    dist.(s) <- 0;
    let q = Queue.create () in
    Queue.add s q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      Iset.iter
        (fun v ->
          if dist.(v) < 0 then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v q
          end)
        (Ugraph.adj_within g ~within:w u)
    done
  end;
  dist

let component ?within g s =
  let dist = bfs ?within g s in
  let acc = ref Iset.empty in
  Array.iteri (fun v d -> if d >= 0 then acc := Iset.add v !acc) dist;
  !acc

let components ?within g =
  let w = Ugraph.default_within g within in
  let rec go remaining acc =
    match Iset.min_elt_opt remaining with
    | None -> List.rev acc
    | Some s ->
      let c = component ~within:remaining g s in
      go (Iset.diff remaining c) (c :: acc)
  in
  go w []

let component_ids ?within g =
  let comps = components ?within g in
  let id = Array.make (Ugraph.n g) (-1) in
  List.iteri (fun k c -> Iset.iter (fun v -> id.(v) <- k) c) comps;
  (id, comps)

let is_connected ?within g =
  let w = Ugraph.default_within g within in
  match Iset.min_elt_opt w with
  | None -> true
  | Some s -> Iset.equal (component ~within:w g s) w

let connects ?within g p =
  let w = Ugraph.default_within g within in
  Iset.subset p w
  &&
  match Iset.min_elt_opt p with
  | None -> true
  | Some s -> Iset.subset p (component ~within:w g s)

let component_containing ?within g p =
  let w = Ugraph.default_within g within in
  if not (Iset.subset p w) then None
  else
    match Iset.min_elt_opt p with
    | None -> (
      match Iset.min_elt_opt w with
      | None -> Some Iset.empty
      | Some s -> Some (component ~within:w g s))
    | Some s ->
      let c = component ~within:w g s in
      if Iset.subset p c then Some c else None

let shortest_path ?within g s t =
  let w = Ugraph.default_within g within in
  if not (Iset.mem s w && Iset.mem t w) then None
  else begin
    let parent = Array.make (Ugraph.n g) (-1) in
    let seen = Array.make (Ugraph.n g) false in
    seen.(s) <- true;
    let q = Queue.create () in
    Queue.add s q;
    let found = ref (s = t) in
    while (not !found) && not (Queue.is_empty q) do
      let u = Queue.pop q in
      Iset.iter
        (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            parent.(v) <- u;
            if v = t then found := true else Queue.add v q
          end)
        (Ugraph.adj_within g ~within:w u)
    done;
    if not !found then None
    else begin
      let rec build v acc =
        if v = s then s :: acc else build parent.(v) (v :: acc)
      in
      Some (build t [])
    end
  end

let distance ?within g s t =
  let w = Ugraph.default_within g within in
  if not (Iset.mem s w) then None
  else
    let d = (bfs ~within:w g s).(t) in
    if d < 0 then None else Some d
