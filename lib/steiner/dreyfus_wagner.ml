open Graphs

let max_terminals = 17

let inf = max_int / 4

(* Costs stay below [inf]: a settled cost is at most the total weight,
   so a push or a merge is at most twice that. *)
let max_total_weight = inf / 2

(* Reconstruction tags, one int per [how] cell: a node [u >= 0] means
   the tree at [u] extended by the edge u–v, [leaf] a cell no step has
   reached, and [-sub - 1] (always < [leaf], as [sub >= 1]) the split
   into [sub] and its complement at v. Singleton rows are read as
   shortest paths, whatever their tags. *)
let leaf = -1

(* Raised (and caught below) when tree reconstruction hits a state the
   DP invariants say is impossible; degrading to [None] lets the
   runtime ladder fall through instead of crashing the process. *)
exception Reconstruction_failed

let total_weight w =
  let exception Out in
  match
    Array.fold_left
      (fun acc x ->
        if x < 0 || x > max_total_weight - acc then raise Out else acc + x)
      0 w
  with
  | total -> Some total
  | exception Out -> None

(* Whether BFS from [s] reaches every node of [terms]; [seen] is a
   zeroed [n]-byte scratch and [queue] has length [n]. *)
let reaches csr ~queue seen s terms =
  Bytes.set seen s '\001';
  queue.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  let visit v =
    if Bytes.get seen v = '\000' then begin
      Bytes.set seen v '\001';
      queue.(!tail) <- v;
      incr tail
    end
  in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    Csr.iter_neighbors csr u visit
  done;
  Array.for_all (fun v -> Bytes.get seen v = '\001') terms

(* Every node of the CSR is a candidate tree node. Tables are flat:
   cell [mask * n + v] holds the cost and the [how] tag of the best tree
   spanning the terminals in [mask] plus [v], a tree costing the sum of
   its nodes' weights. The singleton rows are node-weighted shortest
   path costs from their terminal; the path reconstruction reads them
   and the settle ranks their relax recorded. *)
let solve_csr ?weight ?(budget = Runtime.Budget.unlimited)
    ?(trace = Observe.Trace.disabled) ?(metrics = Observe.Metrics.disabled) csr
    ~terminals =
  let n = Csr.n csr in
  let total =
    match weight with
    | None -> n
    | Some w -> (
      if Array.length w <> n then
        invalid_arg "Dreyfus_wagner.solve_csr: one weight per node";
      match total_weight w with
      | Some total -> total
      | None ->
        invalid_arg
          "Dreyfus_wagner.solve_csr: negative weight or total above \
           max_total_weight")
  in
  match (Iset.min_elt_opt terminals, Iset.max_elt_opt terminals) with
  | Some lo, Some hi when lo < 0 || hi >= n -> None
  | _ when Iset.cardinal terminals <= 1 ->
    Some { Tree.nodes = terminals; edges = [] }
  | _ ->
    let terms = Array.of_list (Iset.elements terminals) in
    let t = Array.length terms in
    if not (reaches csr ~queue:(Array.make n 0) (Bytes.make n '\000') terms.(0) terms)
    then None
    else begin
      if t > max_terminals then
        invalid_arg "Dreyfus_wagner.solve: too many terminals";
      let weight = match weight with Some w -> w | None -> Array.make n 1 in
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
      let dp = Array.make ((full + 1) * n) inf in
      let how = Array.make ((full + 1) * n) leaf in
      (* Dijkstra pass: propagate the [mask] row along edges, entering
         node u at cost w(u), so that it accounts for "grow by a path"
         transitions. Queue entries are threaded through
         [entry]/[cost]/[next] (a node is pushed once at the start and
         at most once per edge scan, so n + 2m entries suffice) into
         stacks, newest first, so that nodes pushed ascending settle at
         the least cost, last-in first-out: the order that fixes the
         [how] tie-breaks. An entry whose node has since been pushed
         cheaper is stale. [!last] is the cost being settled.
         - When the total weight is at most n + 2m (always with unit
           weights) the stacks are Dial's buckets, one per cost: a pass
           costs O(n + m).
         - Otherwise an array spanning the costs would outgrow the
           pass, and the stacks form a radix heap (Ahuja, Mehlhorn,
           Orlin and Tarjan 1990): stack 0 holds the entries costing
           [!last], stack i > 0 those whose cost first differs from it
           in bit i - 1, and when stack 0 runs dry the least nonempty
           stack is split below its least live cost. An entry only
           moves down, so a pass costs O((n + m) · b) for b-bit costs.
         [settled.(v)] is the stamp at which v was last settled; stamps
         rise across passes and order the settles within a pass. *)
      let size = n + (2 * Csr.m csr) in
      let dial = total <= size in
      let stacks = if dial then total + 1 else Sys.int_size in
      let head = Array.make stacks (-1) in
      let tail = Array.make (if dial then 0 else stacks) (-1) in
      let entry = Array.make size 0 in
      let cost = Array.make size 0 in
      let next = Array.make size 0 in
      let settled = Array.make n (-1) in
      let rank = Array.make (t * n) (-1) in
      let stamp = ref 0 in
      let used = ref 0 and last = ref 0 in
      let base = ref 0 in
      (* The radix stack of cost c: one plus the highest bit where c and
         [!last] differ, 0 when they agree. *)
      let radix c =
        let x = ref (c lxor !last) and b = ref 0 in
        if !x lsr 32 <> 0 then (x := !x lsr 32; b := 32);
        if !x lsr 16 <> 0 then (x := !x lsr 16; b := !b + 16);
        if !x lsr 8 <> 0 then (x := !x lsr 8; b := !b + 8);
        if !x lsr 4 <> 0 then (x := !x lsr 4; b := !b + 4);
        if !x lsr 2 <> 0 then (x := !x lsr 2; b := !b + 2);
        if !x lsr 1 <> 0 then (x := !x lsr 1; b := !b + 1);
        !b + !x
      in
      (* No tree costs more than the total, so Dial drops such pushes:
         they go stale before their cost comes up. *)
      let push c v =
        let j = if not dial then radix c else if c < stacks then c else -1 in
        if j >= 0 then begin
          entry.(!used) <- v;
          cost.(!used) <- c;
          next.(!used) <- head.(j);
          head.(j) <- !used;
          incr used
        end
      in
      let live e = cost.(e) = dp.(!base + entry.(e)) in
      (* The next live entry costing [!last], after advancing [!last]
         when none is left; -1 when the queue is empty. *)
      let rec take_dial () =
        if !last >= stacks then -1
        else
          let e = head.(!last) in
          if e < 0 then begin
            incr last;
            take_dial ()
          end
          else begin
            head.(!last) <- next.(e);
            if live e then e else take_dial ()
          end
      in
      (* Splitting unlinks stale entries, and stack 0 never holds one,
         since no push undercuts [!last]. *)
      let rec take_radix () =
        let e = head.(0) in
        if e >= 0 then begin
          head.(0) <- next.(e);
          e
        end
        else begin
          let i = ref 1 in
          while !i < stacks && head.(!i) < 0 do
            incr i
          done;
          if !i = stacks then -1
          else begin
            let i = !i in
            let least = ref max_int and most = ref 0 in
            let prev = ref (-1) and e = ref head.(i) in
            while !e >= 0 do
              let x = !e in
              e := next.(x);
              if live x then begin
                let c = cost.(x) in
                if c < !least then least := c;
                if c > !most then most := c;
                prev := x
              end
              else if !prev < 0 then head.(i) <- !e
              else next.(!prev) <- !e
            done;
            let e = ref head.(i) in
            head.(i) <- -1;
            (* A stack of one cost moves to stack 0 whole. *)
            if !e < 0 then ()
            else if !most = !least then begin
              last := !least;
              head.(0) <- !e
            end
            else begin
              last := !least;
              Array.fill tail 0 i (-1);
              while !e >= 0 do
                let x = !e in
                e := next.(x);
                let j = radix cost.(x) in
                next.(x) <- -1;
                if tail.(j) < 0 then head.(j) <- x else next.(tail.(j)) <- x;
                tail.(j) <- x
              done
            end;
            take_radix ()
          end
        end
      in
      let take = if dial then take_dial else take_radix in
      (* The edge visitor of the relax pass: row [!base], grown from the
         settled node [!from] of cost [!last]. *)
      let from = ref 0 in
      let visit u =
        let cell = !base + u in
        let grown = !last + weight.(u) in
        if grown < dp.(cell) then begin
          dp.(cell) <- grown;
          how.(cell) <- !from;
          push grown u
        end
      in
      let relax mask =
        base := mask * n;
        used := 0;
        last := 0;
        Array.fill head 0 stacks (-1);
        for v = 0 to n - 1 do
          let dv = dp.(!base + v) in
          if dv < inf then push dv v
        done;
        let e = ref (take ()) in
        while !e >= 0 do
          let v = entry.(!e) in
          Runtime.Budget.check budget;
          settled.(v) <- !stamp;
          incr stamp;
          from := v;
          Csr.iter_neighbors csr v visit;
          e := take ()
        done
      in
      for i = 0 to t - 1 do
        let mask = 1 lsl i in
        dp.((mask * n) + terms.(i)) <- weight.(terms.(i));
        relax mask;
        Array.blit settled 0 rank (i * n) n
      done;
      for mask = 1 to full do
        if mask land (mask - 1) <> 0 then begin
          (* Merge transitions: to avoid double work, force the submask
             to contain the mask's lowest terminal. Submasks ascend.
             The shared root is paid once. Every finite cost of a tree
             at v is at least w(v), so an [inf] operand stays above
             [inf]. *)
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
            let wv = weight.(v) in
            for k = 0 to Array.length subs - 1 do
              let sub = subs.(k) in
              let cost = dp.((sub * n) + v) + dp.(((mask lxor sub) * n) + v) - wv in
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
        (* Walk from [v] back to terminal [i]: step to the least
           neighbor y on a shortest path (dist y = dist x - w x) that
           the singleton pass settled before x. Ranks strictly fall,
           so zero weights cannot make the walk loop. *)
        let add_path i v =
          let off = (1 lsl i) * n and roff = i * n in
          let rec go x =
            nodes := Iset.add x !nodes;
            if x <> terms.(i) then begin
              let want = dp.(off + x) - weight.(x)
              and before = rank.(roff + x)
              and pred = ref (-1) in
              ignore
                (Csr.for_all_neighbors csr x (fun y ->
                     dp.(off + y) <> want
                     || rank.(roff + y) >= before
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
          if mask land (mask - 1) = 0 then begin
            let rec bit i = if mask = 1 lsl i then i else bit (i + 1) in
            add_path (bit 0) v
          end
          else if h >= 0 then begin
            nodes := Iset.add v !nodes;
            rebuild mask h
          end
          else if h = leaf then raise Reconstruction_failed
          else begin
            let sub = -h - 1 in
            rebuild sub v;
            rebuild (mask lxor sub) v
          end
        in
        match rebuild full !root with
        | exception Reconstruction_failed -> None
        | () ->
          (* The collected node set is connected, holds every terminal
             and weighs at most the optimum (the reconstruction pays
             each node it collects at least once), so a spanning tree
             of it is an optimal Steiner tree. *)
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
