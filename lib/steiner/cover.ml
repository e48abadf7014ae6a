open Graphs

let is_cover g ~p nodes =
  Iset.subset p nodes && Traverse.is_connected ~within:nodes g

let is_nonredundant_cover g ~p nodes =
  is_cover g ~p nodes
  && Iset.for_all (fun v -> not (is_cover g ~p (Iset.remove v nodes))) nodes

let is_side_nonredundant_cover g ~p ~side nodes =
  is_cover g ~p nodes
  && Iset.for_all
       (fun v -> not (is_cover g ~p (Iset.remove v nodes)))
       (Iset.inter nodes side)

let subsets_of ?(ascending = false) set =
  let elements = Array.of_list (Iset.elements set) in
  let k = Array.length elements in
  if k > 22 then invalid_arg "Cover: brute-force subset enumeration too large";
  let all = ref [] in
  for mask = 0 to (1 lsl k) - 1 do
    let s = ref Iset.empty in
    for b = 0 to k - 1 do
      if mask land (1 lsl b) <> 0 then s := Iset.add elements.(b) !s
    done;
    all := !s :: !all
  done;
  let l = List.rev !all in
  if ascending then
    List.sort (fun a b -> compare (Iset.cardinal a) (Iset.cardinal b)) l
  else l

let nonredundant_covers_brute g ~within ~p =
  let optional = Iset.diff within p in
  subsets_of optional
  |> List.filter_map (fun extra ->
         let nodes = Iset.union p extra in
         if is_nonredundant_cover g ~p nodes then Some nodes else None)

let minimum_cover_size_brute g ~within ~p =
  let optional = Iset.diff within p in
  let rec first = function
    | [] -> None
    | extra :: rest ->
      let nodes = Iset.union p extra in
      if is_cover g ~p nodes then Some (Iset.cardinal nodes)
      else first rest
  in
  first (subsets_of ~ascending:true optional)

let side_minimum_brute g ~within ~p ~side =
  let all_covers =
    subsets_of (Iset.diff within p)
    |> List.filter_map (fun extra ->
           let nodes = Iset.union p extra in
           if is_cover g ~p nodes then
             Some (Iset.cardinal (Iset.inter nodes side))
           else None)
  in
  match all_covers with
  | [] -> None
  | l -> Some (List.fold_left min max_int l)

type drop = Node | Node_and_private

(* One elimination fixpoint for Algorithms 1 and 2. Every node of
   [csr] starts present; a candidate v (not a terminal, still present)
   is dropped — alone, or with Adj*(v), the neighbors only v holds in
   the present set — when the rest still connects [p]. A single pass
   can keep a node that only connected something deleted later in the
   same pass (covers must be connected as a whole, Definition 10), so
   re-scan [order] until a pass drops nothing, as Theorem 5's claim
   that Step 1 yields a nonredundant cover requires. A candidate is
   removed in place and restored if the epoch-stamped BFS from a
   terminal no longer reaches every present node. *)
let eliminate ?(budget = Runtime.Budget.unlimited)
    ?(steps = Observe.Metrics.inert) ~drop csr ~p order =
  let n = Csr.n csr in
  let present = Bitset.create n and terminal = Bitset.create n in
  for v = 0 to n - 1 do
    Bitset.add present v
  done;
  Iset.iter (Bitset.add terminal) p;
  let size = ref n in
  let queue = Array.make n 0
  and seen = Array.make n 0
  and generation = ref 0
  and dropped = Array.make n 0
  and k = ref 0 in
  let anchor = Iset.min_elt_opt p in
  let connected () =
    match if anchor = None then Bitset.min_elt_opt present else anchor with
    | None -> true
    | Some start ->
      incr generation;
      let gen = !generation in
      seen.(start) <- gen;
      queue.(0) <- start;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let x = queue.(!head) in
        incr head;
        Csr.iter_neighbors csr x (fun y ->
            if seen.(y) <> gen && Bitset.mem present y then begin
              seen.(y) <- gen;
              queue.(!tail) <- y;
              incr tail
            end)
      done;
      !tail = !size
  in
  let private_to v u =
    Bitset.mem present u
    && Csr.for_all_neighbors csr u (fun w -> w = v || not (Bitset.mem present w))
  in
  let toggle_dropped f =
    for i = 0 to !k - 1 do
      f present dropped.(i)
    done
  in
  let step v =
    if Bitset.mem terminal v || not (Bitset.mem present v) then false
    else begin
      Runtime.Budget.check budget;
      Observe.Metrics.incr steps;
      dropped.(0) <- v;
      k := 1;
      let blocked = ref false in
      (match drop with
      | Node -> ()
      | Node_and_private ->
        Csr.iter_neighbors csr v (fun u ->
            if private_to v u then begin
              if Bitset.mem terminal u then blocked := true;
              dropped.(!k) <- u;
              incr k
            end));
      (not !blocked)
      && begin
           toggle_dropped Bitset.remove;
           size := !size - !k;
           connected ()
           || begin
                toggle_dropped Bitset.add;
                size := !size + !k;
                false
              end
         end
    end
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter (fun v -> if step v then changed := true) order
  done;
  Bitset.to_iset present

(* Lemma 5 lets elimination run in any connected superset of [p]; the
   cheapest at hand is the parent paths of one BFS from the least
   terminal, cut short once the last terminal is discovered. [parent]
   doubles as the visited mark (-2 unseen, -1 the root); each path is
   walked up only until it meets the seed. *)
let seed csr ~p =
  let n = Csr.n csr in
  match (Iset.min_elt_opt p, Iset.max_elt_opt p) with
  | None, _ | _, None -> Some [||]
  | Some root, Some hi when root >= 0 && hi < n ->
    let parent = Array.make n (-2) and queue = Array.make n root in
    parent.(root) <- -1;
    let missing = ref (Iset.cardinal p - 1) and head = ref 0 and tail = ref 1 in
    while !missing > 0 && !head < !tail do
      let u = queue.(!head) in
      incr head;
      Csr.iter_neighbors csr u (fun v ->
          if parent.(v) = -2 then begin
            parent.(v) <- u;
            queue.(!tail) <- v;
            incr tail;
            if Iset.mem v p then decr missing
          end)
    done;
    if !missing > 0 then None
    else begin
      (* The queue is spent: it collects the seed. *)
      let member = Bitset.create n and size = ref 0 in
      Iset.iter
        (fun t ->
          let v = ref t in
          while !v >= 0 && not (Bitset.mem member !v) do
            Bitset.add member !v;
            queue.(!size) <- !v;
            incr size;
            v := parent.(!v)
          done)
        p;
      let ids = Array.sub queue 0 !size in
      Array.sort Int.compare ids;
      Some ids
    end
  | Some _, Some _ -> None

(* The renumbering is ascending, so a scan over the slice takes the
   decisions it takes on [g]. *)
let slice ?order g ~within =
  let ids = Array.of_list (Iset.elements within) in
  let csr = Csr.of_ugraph g in
  let csr = if Array.length ids = Csr.n csr then csr else Csr.induced csr ids in
  let local = Csr.local_index ids in
  let order =
    match order with
    | None -> List.init (Array.length ids) Fun.id
    | Some o ->
      List.filter_map
        (fun v -> match local v with i -> Some i | exception Not_found -> None)
        o
  in
  (csr, ids, order)

let eliminate_redundant ?order ?budget ?steps g ~within ~p =
  let csr, ids, order = slice ?order g ~within in
  eliminate ?budget ?steps ~drop:Node csr
    ~p:(Iset.map (Csr.local_index ids) p)
    order
  |> Iset.map (fun i -> ids.(i))

let is_nonredundant_path g path =
  match path with
  | [] -> false
  | [ _ ] -> true
  | first :: _ ->
    let last = List.nth path (List.length path - 1) in
    let p = Iset.add first (Iset.singleton last) in
    is_nonredundant_cover g ~p (Iset.of_list path)

let all_paths ?max_len g s t =
  let bound = match max_len with Some b -> b | None -> Ugraph.n g in
  let acc = ref [] in
  let on_path = Array.make (Ugraph.n g) false in
  let rec extend path len last =
    if last = t then acc := List.rev path :: !acc
    else if len < bound then
      Iset.iter
        (fun v ->
          if not on_path.(v) then begin
            on_path.(v) <- true;
            extend (v :: path) (len + 1) v;
            on_path.(v) <- false
          end)
        (Ugraph.neighbors g last)
  in
  on_path.(s) <- true;
  extend [ s ] 1 s;
  on_path.(s) <- false;
  !acc

let nonredundant_nonminimum_pair g =
  let n = Ugraph.n g in
  let result = ref None in
  for s = 0 to n - 1 do
    for t = s + 1 to n - 1 do
      if !result = None then
        match Traverse.distance g s t with
        | None -> ()
        | Some d ->
          let witness =
            List.find_opt
              (fun path ->
                List.length path - 1 > d && is_nonredundant_path g path)
              (all_paths g s t)
          in
          (match witness with
          | Some path -> result := Some (s, t, path)
          | None -> ())
    done
  done;
  !result
