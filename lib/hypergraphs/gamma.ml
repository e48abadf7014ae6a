open Graphs

(* Fixed per-vertex key for the neighbourhood fingerprints: a
   multiply-xorshift mix of the index. Sums of these keys are equal
   for equal neighbourhoods, and rarely otherwise. *)
let key v =
  let z = (v + 1) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 29)) * 0x1CE4E5B9 in
  z lxor (z lsr 32)

(* γ-elimination on a bipartite incidence graph. [fp.(v)] is the sum of
   the keys of [v]'s live neighbours, kept current on every deletion.
   A live vertex of degree >= 2 is either queued in [dirty] or
   registered in the twin table under its current fingerprint, chained
   through [next] from [head.(fp land mask)]; a fingerprint change
   unregisters it and queues it again. So a vertex whose twin exists
   finds it, either when it registers or when the twin does, and when
   both worklists are empty no rule applies. Two vertices with equal
   nonempty neighbourhoods in a bipartite graph lie on the same side,
   so the side needs no key of its own. *)
let acyclic_incidence t =
  let n = Csr.n t in
  let alive = Bytes.make n '\001' in
  let is_alive v = Bytes.get alive v <> '\000' in
  let deg = Array.init n (Csr.degree t) in
  let fp = Array.make n 0 in
  let low = Array.make n 0 and n_low = ref 0 in
  let dirty = Array.make n 0 and n_dirty = ref 0 in
  let queued = Bytes.make n '\000' in
  let push_low v =
    low.(!n_low) <- v;
    incr n_low
  in
  let push_dirty v =
    if Bytes.get queued v = '\000' then begin
      Bytes.set queued v '\001';
      dirty.(!n_dirty) <- v;
      incr n_dirty
    end
  in
  let cap = ref 1 in
  while !cap < n do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let head = Array.make !cap (-1) in
  let next = Array.make n (-1) in
  let bucket = Array.make n (-1) in
  let unregister v =
    let b = bucket.(v) in
    if b >= 0 then begin
      bucket.(v) <- -1;
      if head.(b) = v then head.(b) <- next.(v)
      else begin
        let x = ref head.(b) in
        while next.(!x) <> v do
          x := next.(!x)
        done;
        next.(!x) <- next.(v)
      end
    end
  in
  let register v =
    let b = fp.(v) land mask in
    next.(v) <- head.(b);
    head.(b) <- v;
    bucket.(v) <- b
  in
  (* Equal live rows: same live degree, and the live part of the
     shorter stored row lies in the other row. *)
  let twins x w =
    fp.(x) = fp.(w)
    && deg.(x) = deg.(w)
    &&
    let a, b = if Csr.degree t x <= Csr.degree t w then (x, w) else (w, x) in
    Csr.for_all_neighbors t a (fun u ->
        (not (is_alive u)) || Csr.mem_edge t b u)
  in
  let remaining = ref n in
  let delete v =
    Bytes.set alive v '\000';
    decr remaining;
    unregister v;
    let kv = key v in
    Csr.iter_neighbors t v (fun u ->
        if is_alive u then begin
          unregister u;
          deg.(u) <- deg.(u) - 1;
          fp.(u) <- fp.(u) - kv;
          if deg.(u) = 1 then push_low u else if deg.(u) >= 2 then push_dirty u
        end)
  in
  for v = 0 to n - 1 do
    Csr.iter_neighbors t v (fun u -> fp.(v) <- fp.(v) + key u);
    if deg.(v) <= 1 then push_low v else push_dirty v
  done;
  let continue = ref true in
  while !continue do
    if !n_low > 0 then begin
      decr n_low;
      let v = low.(!n_low) in
      if is_alive v then delete v
    end
    else if !n_dirty > 0 then begin
      decr n_dirty;
      let w = dirty.(!n_dirty) in
      Bytes.set queued w '\000';
      if is_alive w && deg.(w) >= 2 then begin
        let x = ref head.(fp.(w) land mask) in
        while !x >= 0 && not (twins !x w) do
          x := next.(!x)
        done;
        if !x >= 0 then delete w else register w
      end
    end
    else continue := false
  done;
  !remaining = 0

let acyclic h = acyclic_incidence (fst (Hypergraph.incidence_csr h))

let special_3_cycle h =
  let q = Hypergraph.n_edges h in
  let e = Hypergraph.edge h in
  let result = ref None in
  for i = 0 to q - 1 do
    for j = 0 to q - 1 do
      for k = 0 to q - 1 do
        if !result = None && i <> j && j <> k && i <> k then begin
          let n1_pool = Iset.diff (Iset.inter (e i) (e j)) (e k) in
          let n2_pool = Iset.inter (e j) (e k) in
          let n3_pool = Iset.diff (Iset.inter (e k) (e i)) (e j) in
          if
            (not (Iset.is_empty n1_pool))
            && (not (Iset.is_empty n2_pool))
            && not (Iset.is_empty n3_pool)
          then result := Some (i, j, k)
        end
      done
    done
  done;
  !result
