open Graphs

let max_terminals = 17

let inf = max_int / 4

(* Reconstruction tags, one int per [how] cell: a node [u >= 0] means
   the tree at [u] extended by the edge u–v, [leaf] the base case (a
   shortest path from the mask's single terminal), and [-sub - 1]
   (always < [leaf], as [sub >= 1]) the split into [sub] and its
   complement at v. *)
let leaf = -1

(* Raised (and caught below) when tree reconstruction hits a state the
   DP invariants say is impossible; degrading to [None] lets the
   runtime ladder fall through instead of crashing the process. *)
exception Reconstruction_failed

(* Unit-weight distances from [s] into [dist.(off) .. dist.(off + n - 1)],
   [inf] where unreached; [queue] has length [n]. The neighbor visitor
   reads the current distance from a ref, so one closure serves the
   whole search. *)
let bfs_row csr ~queue dist off s =
  dist.(off + s) <- 0;
  queue.(0) <- s;
  let head = ref 0 and tail = ref 1 and du = ref 0 in
  let visit v =
    if dist.(off + v) = inf then begin
      dist.(off + v) <- !du;
      queue.(!tail) <- v;
      incr tail
    end
  in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    du := dist.(off + u) + 1;
    Csr.iter_neighbors csr u visit
  done

(* Every node of the CSR is a candidate tree node. Tables are flat:
   cell [mask * n + v] holds the cost and the [how] tag of the best tree
   spanning the terminals in [mask] plus [v]. Distances are kept for the
   [t] terminals only — the base case and the path reconstruction read
   no other row. *)
let solve_csr ?(budget = Runtime.Budget.unlimited)
    ?(trace = Observe.Trace.disabled) ?(metrics = Observe.Metrics.disabled) csr
    ~terminals =
  let n = Csr.n csr in
  match (Iset.min_elt_opt terminals, Iset.max_elt_opt terminals) with
  | Some lo, Some hi when lo < 0 || hi >= n -> None
  | _ when Iset.cardinal terminals <= 1 ->
    Some { Tree.nodes = terminals; edges = [] }
  | _ ->
    let terms = Array.of_list (Iset.elements terminals) in
    let t = Array.length terms in
    let queue = Array.make n 0 in
    let first = Array.make n inf in
    bfs_row csr ~queue first 0 terms.(0);
    if Array.exists (fun s -> first.(s) = inf) terms then None
    else begin
      if t > max_terminals then
        invalid_arg "Dreyfus_wagner.solve: too many terminals";
      let full = (1 lsl t) - 1 in
      Observe.Trace.span trace "dreyfus_wagner"
        ~attrs:
          [
            ("terminals", Observe.Trace.Int t);
            ("masks", Observe.Trace.Int (full + 1));
            ("table_cells", Observe.Trace.Int ((full + 1) * n));
          ]
      @@ fun () ->
      Observe.Metrics.observe
        (Observe.Metrics.histogram metrics "dp.table_size"
           ~bounds:[| 1e2; 1e3; 1e4; 1e5; 1e6; 1e7 |])
        (float_of_int ((full + 1) * n));
      let dist = Array.make (t * n) inf in
      Array.blit first 0 dist 0 n;
      for i = 1 to t - 1 do
        bfs_row csr ~queue dist (i * n) terms.(i)
      done;
      let dp = Array.make ((full + 1) * n) inf in
      let how = Array.make ((full + 1) * n) leaf in
      for i = 0 to t - 1 do
        Array.blit dist (i * n) dp ((1 lsl i) * n) n
      done;
      (* Bucket-queue Dijkstra pass: propagate the [mask] row along
         edges of unit weight so that it accounts for "grow by a path"
         transitions. Each bucket is a stack threaded through
         [entry]/[next] (a node is pushed once at the start and at most
         once per edge scan, so n + 2m entries suffice); nodes pushed
         ascending and popped last-in first-out settle in the order
         that fixes the [how] tie-breaks. *)
      let maxd = n + 1 in
      let bucket = Array.make (maxd + 1) (-1) in
      let entry = Array.make (n + (2 * Csr.m csr)) 0 in
      let next = Array.make (n + (2 * Csr.m csr)) 0 in
      let settled = Bytes.create n in
      let used = ref 0 in
      let push d v =
        entry.(!used) <- v;
        next.(!used) <- bucket.(d);
        bucket.(d) <- !used;
        incr used
      in
      (* The edge visitor of the relax pass: row [!base], grown from the
         settled node [!from] at cost [!grown]. *)
      let base = ref 0 and from = ref 0 and grown = ref 0 in
      let visit u =
        let cell = !base + u in
        if !grown < dp.(cell) then begin
          dp.(cell) <- !grown;
          how.(cell) <- !from;
          if !grown <= maxd then push !grown u
        end
      in
      let relax mask =
        base := mask * n;
        used := 0;
        Array.fill bucket 0 (maxd + 1) (-1);
        Bytes.fill settled 0 n '\000';
        for v = 0 to n - 1 do
          let dv = dp.(!base + v) in
          if dv <= maxd then push dv v
        done;
        for dist_now = 0 to maxd do
          while bucket.(dist_now) >= 0 do
            let e = bucket.(dist_now) in
            bucket.(dist_now) <- next.(e);
            let v = entry.(e) in
            if Bytes.get settled v = '\000' && dp.(!base + v) = dist_now
            then begin
              Runtime.Budget.check budget;
              Bytes.set settled v '\001';
              from := v;
              grown := dist_now + 1;
              Csr.iter_neighbors csr v visit
            end
          done
        done
      in
      for i = 0 to t - 1 do
        relax (1 lsl i)
      done;
      for mask = 1 to full do
        if mask land (mask - 1) <> 0 then begin
          (* Merge transitions: to avoid double work, force the submask
             to contain the mask's lowest terminal. Submasks ascend. *)
          let low = mask land -mask in
          let rec submasks sub acc =
            if sub = 0 then acc
            else
              submasks ((sub - 1) land mask)
                (if sub <> mask && sub land low <> 0 then sub :: acc else acc)
          in
          let subs = Array.of_list (submasks mask []) in
          let base = mask * n in
          for v = 0 to n - 1 do
            Runtime.Budget.check budget;
            for k = 0 to Array.length subs - 1 do
              let sub = subs.(k) in
              let cost = dp.((sub * n) + v) + dp.(((mask lxor sub) * n) + v) in
              if cost < dp.(base + v) then begin
                dp.(base + v) <- cost;
                how.(base + v) <- -sub - 1
              end
            done
          done;
          relax mask
        end
      done;
      (* Best root: the least node of minimum cost. *)
      let root = ref (-1) and best = ref inf in
      for v = 0 to n - 1 do
        if dp.((full * n) + v) < !best then begin
          best := dp.((full * n) + v);
          root := v
        end
      done;
      if !best >= inf then None
      else begin
        let nodes = ref Iset.empty in
        (* Walk from [v] back to terminal [i] along decreasing distance
           from it, taking the least such neighbor at each step. *)
        let add_path i v =
          let off = i * n in
          let rec go x =
            nodes := Iset.add x !nodes;
            if x <> terms.(i) then begin
              let want = dist.(off + x) - 1 and pred = ref (-1) in
              ignore
                (Csr.for_all_neighbors csr x (fun y ->
                     dist.(off + y) <> want
                     ||
                     (pred := y;
                      false)));
              if !pred < 0 then raise Reconstruction_failed;
              go !pred
            end
          in
          go v
        in
        let rec rebuild mask v =
          let h = how.((mask * n) + v) in
          if h >= 0 then begin
            nodes := Iset.add v !nodes;
            rebuild mask h
          end
          else if h = leaf then begin
            let rec find i =
              if i >= t then raise Reconstruction_failed
              else if mask = 1 lsl i then i
              else find (i + 1)
            in
            add_path (find 0) v
          end
          else begin
            let sub = -h - 1 in
            rebuild sub v;
            rebuild (mask lxor sub) v
          end
        in
        match rebuild full !root with
        | exception Reconstruction_failed -> None
        | () ->
          (* The collected node set is connected and has exactly
             opt + 1 nodes (the reconstruction walks at most opt
             distinct edges and any connected cover needs at least that
             many), so a spanning tree of it is an optimal Steiner
             tree. *)
          Tree.of_csr_node_set csr !nodes
      end
    end

(* The slice keeps every node of [within], not only the terminals'
   component: the merge pass meters one fuel unit per node of [within]
   and subset. *)
let solve ?within ?budget ?trace ?metrics g ~terminals =
  let w = match within with Some w -> w | None -> Ugraph.nodes g in
  if not (Iset.subset terminals w) then None
  else
    let csr, ids, _ = Cover.slice g ~within:w in
    solve_csr ?budget ?trace ?metrics csr
      ~terminals:(Iset.map (Csr.local_index ids) terminals)
    |> Option.map (Tree.relabel ids)

let optimum_nodes ?within ?budget g ~terminals =
  Option.map Tree.node_count (solve ?within ?budget g ~terminals)
