(* Generic greedy search: repeatedly pick an unvisited node with the
   best label (ties broken by smallest id), then let each unvisited
   neighbor absorb the visit timestamp into its label. LexBFS compares
   timestamp lists lexicographically; MCS compares their lengths.

   This set-based version is kept as the differential-testing and
   benchmarking reference; the public [lexbfs_order] / [mcs_order]
   below are the flat CSR ports and produce identical orders. *)
let greedy_order ~better ?within ?start g =
  let w = Ugraph.default_within g within in
  let labels = Hashtbl.create 16 in
  let label v =
    match Hashtbl.find_opt labels v with Some l -> l | None -> []
  in
  let visited = Array.make (Ugraph.n g) false in
  let order = ref [] in
  let pick () =
    Iset.fold
      (fun v acc ->
        if visited.(v) then acc
        else
          match acc with
          | None -> Some v
          | Some u -> if better (label v) (label u) then Some v else Some u)
      w None
  in
  let visit time v =
    visited.(v) <- true;
    order := v :: !order;
    Iset.iter
      (fun u ->
        if not visited.(u) then Hashtbl.replace labels u (label u @ [ time ]))
      (Ugraph.adj_within g ~within:w v)
  in
  (match start with
  | Some s when Iset.mem s w -> visit 0 s
  | Some _ | None -> ());
  let time = ref (List.length !order) in
  let rec loop () =
    match pick () with
    | None -> ()
    | Some v ->
      visit !time v;
      incr time;
      loop ()
  in
  loop ();
  List.rev !order

(* Labels are increasing timestamp lists (earliest visited neighbor
   first). The LexBFS rule treats earlier timestamps as lexicographically
   greater symbols, and a proper extension of a label beats the label. *)
let rec lex_gt a b =
  match (a, b) with
  | [], _ -> false
  | _ :: _, [] -> true
  | x :: a', y :: b' -> x < y || (x = y && lex_gt a' b')

let lexbfs_order_sets ?within ?start g =
  greedy_order ~better:lex_gt ?within ?start g

let mcs_order_sets ?within ?start g =
  let better a b = List.length a > List.length b in
  greedy_order ~better ?within ?start g

(* ------------------------------------------------------------------ *)
(* CSR kernels. Same greedy rule and tie-breaking as the reference
   above (ascending scan, strictly-better replaces, so the smallest id
   wins ties), but adjacency comes from a flat CSR row, visited/within
   are plain arrays, and labels live in per-node int buffers instead of
   a hashtable of lists.                                               *)

let members_array g within =
  let inw = Array.make (Ugraph.n g) (within = None) in
  (match within with
  | Some w -> Iset.iter (fun v -> inw.(v) <- true) w
  | None -> ());
  inw

let greedy_order_kernel ~better ~absorb csr inw start =
  let n = Csr.n csr in
  let visited = Array.make n false in
  let order = ref [] in
  let count = ref 0 in
  let visit time v =
    visited.(v) <- true;
    order := v :: !order;
    incr count;
    Csr.iter_neighbors csr v (fun u ->
        if inw.(u) && not visited.(u) then absorb u time)
  in
  (match start with
  | Some s when s >= 0 && s < n && inw.(s) -> visit 0 s
  | Some _ | None -> ());
  let time = ref !count in
  let running = ref true in
  while !running do
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if inw.(v) && not visited.(v) && (!best < 0 || better v !best) then
        best := v
    done;
    match !best with
    | -1 -> running := false
    | v ->
      visit !time v;
      incr time
  done;
  List.rev !order

let lexbfs_order ?within ?start g =
  let n = Ugraph.n g in
  let csr = Csr.of_ugraph g in
  let inw = members_array g within in
  let lab = Array.make n [||] in
  let len = Array.make n 0 in
  let absorb v time =
    if len.(v) = Array.length lab.(v) then begin
      let a = Array.make (max 4 (2 * Array.length lab.(v))) 0 in
      Array.blit lab.(v) 0 a 0 len.(v);
      lab.(v) <- a
    end;
    lab.(v).(len.(v)) <- time;
    len.(v) <- len.(v) + 1
  in
  let better u v =
    let la = lab.(u) and lb = lab.(v) in
    let na = len.(u) and nb = len.(v) in
    let rec go i =
      if i >= na then false
      else if i >= nb then true
      else if la.(i) <> lb.(i) then la.(i) < lb.(i)
      else go (i + 1)
    in
    go 0
  in
  greedy_order_kernel ~better ~absorb csr inw start

let mcs_order ?within ?start g =
  let csr = Csr.of_ugraph g in
  let inw = members_array g within in
  let count = Array.make (Ugraph.n g) 0 in
  let absorb v _time = count.(v) <- count.(v) + 1 in
  let better u v = count.(u) > count.(v) in
  greedy_order_kernel ~better ~absorb csr inw start

let lexbfs_partition_order ?within ?start g =
  let w = match within with Some w -> w | None -> Ugraph.nodes g in
  let initial =
    match start with
    | Some s when Iset.mem s w ->
      [ [ s ]; Iset.elements (Iset.remove s w) ]
    | Some _ | None -> [ Iset.elements w ]
  in
  let rec go classes order =
    match classes with
    | [] -> List.rev order
    | [] :: rest -> go rest order
    | (v :: vs) :: rest ->
      let remaining = if vs = [] then rest else vs :: rest in
      let nb = Ugraph.adj_within g ~within:w v in
      let refined =
        List.concat_map
          (fun cls ->
            let inside, outside =
              List.partition (fun u -> Iset.mem u nb) cls
            in
            List.filter (fun l -> l <> []) [ inside; outside ])
          remaining
      in
      go refined (v :: order)
  in
  go initial []
