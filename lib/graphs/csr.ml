(* Compressed sparse row adjacency: one flat [col] array holding every
   neighbor list back to back, delimited by [row]. Built once — from a
   {!Ugraph} or directly from an edge stream — and then read-only, so
   traversals are cache-friendly and membership is a binary search
   instead of a balanced-tree descent. *)

type t = { n : int; m : int; row : int array; col : int array }

(* In-place heap sort of [a.(lo) .. a.(hi - 1)]: monomorphic int
   comparisons, no closure, no allocation. *)
let heap_sort (a : int array) lo hi =
  let rec sift i len =
    let c = (2 * i) + 1 in
    if c < len then begin
      let c = if c + 1 < len && a.(lo + c + 1) > a.(lo + c) then c + 1 else c in
      if a.(lo + c) > a.(lo + i) then begin
        let t = a.(lo + i) in
        a.(lo + i) <- a.(lo + c);
        a.(lo + c) <- t;
        sift c len
      end
    end
  in
  for i = ((hi - lo) / 2) - 1 downto 0 do
    sift i (hi - lo)
  done;
  for last = hi - lo - 1 downto 1 do
    let t = a.(lo) in
    a.(lo) <- a.(lo + last);
    a.(lo + last) <- t;
    sift 0 last
  done

let check_edge n u v =
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Csr: node out of range";
  if u = v then invalid_arg "Csr: self-loop"

(* Direct two-pass construction over a replayable edge stream: pass 1
   counts degrees, pass 2 fills the rows, then each row is sorted and
   deduplicated in place. No per-node set is ever materialised — the
   working state is three int arrays, two of which ([row] and [col])
   are the result — which is what makes million-node construction
   cheap. The stream must replay identically (the builder
   below and the workload generators both guarantee this). *)
let of_edge_iter ~n iter =
  if n < 0 then invalid_arg "Csr.of_edge_iter: negative size";
  let row = Array.make (n + 1) 0 in
  iter (fun u v ->
      check_edge n u v;
      row.(u + 1) <- row.(u + 1) + 1;
      row.(v + 1) <- row.(v + 1) + 1);
  for u = 1 to n do
    row.(u) <- row.(u) + row.(u - 1)
  done;
  let total = row.(n) in
  let col = Array.make total 0 in
  let cursor = Array.sub row 0 (max n 1) in
  iter (fun u v ->
      col.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1;
      col.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1);
  for u = 0 to n - 1 do
    if cursor.(u) <> row.(u + 1) then
      invalid_arg "Csr.of_edge_iter: stream changed between passes"
  done;
  (* Sort each row, then compact duplicates in place: the write cursor
     never overtakes the read position, so one [col] array suffices.
     Short rows — the common case in the bounded-degree scale
     workloads — are insertion-sorted directly inside [col], so the
     whole sorting pass allocates nothing (and is one linear pass on a
     row that arrived ascending). A long row arrives as an ascending
     prefix (all of it for a [Bigraph.flip] stream; the smaller
     neighbours for a 2-section) and a tail: only the tail is
     heap-sorted in place, then the prefix is copied out and merged
     back in front of it if the two overlap. *)
  let prefix_end s e =
    let k = ref (s + 1) in
    while !k < e && col.(!k - 1) <= col.(!k) do
      incr k
    done;
    !k
  in
  let merge_prefix s k e =
    let prefix = Array.sub col s (k - s) in
    let i = ref 0 and j = ref k and w = ref s in
    while !i < k - s do
      if !j < e && col.(!j) < prefix.(!i) then begin
        col.(!w) <- col.(!j);
        incr j
      end
      else begin
        col.(!w) <- prefix.(!i);
        incr i
      end;
      incr w
    done
  in
  for u = 0 to n - 1 do
    let s = row.(u) and e = row.(u + 1) in
    if e - s > 1 then
      if e - s <= 32 then
        for k = s + 1 to e - 1 do
          let v = col.(k) in
          let j = ref (k - 1) in
          while !j >= s && col.(!j) > v do
            col.(!j + 1) <- col.(!j);
            decr j
          done;
          col.(!j + 1) <- v
        done
      else begin
        let k = prefix_end s e in
        if k < e then begin
          heap_sort col k e;
          if col.(k - 1) > col.(k) then merge_prefix s k e
        end
      end
  done;
  (* Compact the rows in place, [row] included: row [u]'s old start is
     read before its new one is written, and neither write cursor ever
     overtakes the position it reads. *)
  let w = ref 0 and s = ref 0 in
  for u = 0 to n - 1 do
    let e = row.(u + 1) in
    row.(u) <- !w;
    let prev = ref min_int in
    for k = !s to e - 1 do
      let v = col.(k) in
      if v <> !prev then begin
        col.(!w) <- v;
        incr w;
        prev := v
      end
    done;
    s := e
  done;
  row.(n) <- !w;
  let col = if !w = total then col else Array.sub col 0 !w in
  { n; m = !w / 2; row; col }

let of_edges ~n edges =
  of_edge_iter ~n (fun f -> List.iter (fun (u, v) -> f u v) edges)

(* The edit kernel: the result is spliced from [t]'s arrays, never
   rebuilt. Only the rows an edit touches — the endpoints of the added
   and removed pairs and the neighbours of the dropped node — are
   merged afresh. Every other row keeps its sorted contents, so each
   run of untouched rows is copied with one [Array.blit] (entries above
   an interior [drop] are then shifted down by one), and its offsets
   are the old ones plus a constant. Nothing is sorted but the edit
   pairs. *)
let splice ?drop t ~n ~add ~remove =
  let d =
    match drop with
    | None -> t.n
    | Some d ->
      if d < 0 || d >= t.n then invalid_arg "Csr.splice: drop out of range";
      d
  in
  let kept = if d < t.n then t.n - 1 else t.n in
  if n < kept then invalid_arg "Csr.splice: fewer nodes than survive";
  (* Result row [u < kept] is old row [src u]; an old entry [v <> d]
     becomes [map v]. *)
  let src u = if u < d then u else u + 1 in
  let map v = if v > d then v - 1 else v in
  (* Directed edits (row, column, added) in the result's indices,
     sorted by row, then column. *)
  let edits = ref [] in
  let push added (u, v) =
    check_edge n u v;
    edits := (u, v, added) :: (v, u, added) :: !edits
  in
  List.iter (push false) remove;
  List.iter (push true) add;
  let edits = Array.of_list !edits in
  Array.sort compare edits;
  let touched = ref [] in
  Array.iter (fun (u, _, _) -> touched := u :: !touched) edits;
  if d < t.n then
    for x = t.row.(d) to t.row.(d + 1) - 1 do
      touched := map t.col.(x) :: !touched
    done;
  let touched = Array.of_list (List.sort_uniq compare !touched) in
  (* Touched row [u]: its surviving old entries, renumbered, less the
     removed columns, merged with the added ones (an add wins over a
     remove of the same pair). [next] walks [edits] row by row. *)
  let next = ref 0 in
  let merged u =
    let adds = ref [] and removes = ref [] in
    while
      !next < Array.length edits && (let r, _, _ = edits.(!next) in r = u)
    do
      (let _, c, added = edits.(!next) in
       if added then adds := c :: !adds else removes := c :: !removes);
      incr next
    done;
    let adds = Array.of_list (List.rev !adds)
    and removes = Array.of_list (List.rev !removes) in
    let s, e = if u < kept then (t.row.(src u), t.row.(src u + 1)) else (0, 0) in
    let out = Array.make (e - s + Array.length adds) 0 and w = ref 0 in
    let emit v =
      if !w = 0 || out.(!w - 1) <> v then begin
        out.(!w) <- v;
        incr w
      end
    in
    let i = ref s and j = ref 0 and k = ref 0 in
    while !i < e || !j < Array.length adds do
      if !i < e && t.col.(!i) = d then incr i
      else if !j < Array.length adds && (!i >= e || adds.(!j) <= map t.col.(!i))
      then begin
        emit adds.(!j);
        incr j
      end
      else begin
        let v = map t.col.(!i) in
        incr i;
        while !k < Array.length removes && removes.(!k) < v do
          incr k
        done;
        if not (!k < Array.length removes && removes.(!k) = v) then emit v
      end
    done;
    if !w = Array.length out then out else Array.sub out 0 !w
  in
  let rows = Array.map merged touched in
  (* Offsets first, recording the copy of each run as it is laid out;
     then the columns. *)
  let row = Array.make (n + 1) 0 in
  let runs = ref [] in
  let k = ref 0 and u = ref 0 in
  while !u < n do
    if !k < Array.length touched && touched.(!k) = !u then begin
      row.(!u + 1) <- row.(!u) + Array.length rows.(!k);
      runs := `Row (!k, row.(!u)) :: !runs;
      incr k;
      incr u
    end
    else if !u >= kept then begin
      row.(!u + 1) <- row.(!u);
      incr u
    end
    else begin
      (* The untouched rows [u, stop) have consecutive old rows. *)
      let stop = if !k < Array.length touched then touched.(!k) else n in
      let stop = min stop kept in
      let stop = if !u < d then min stop d else stop in
      let c = src !u - !u in
      let shift = row.(!u) - t.row.(!u + c) in
      for x = !u + 1 to stop do
        row.(x) <- t.row.(x + c) + shift
      done;
      runs := `Run (t.row.(src !u), row.(!u), row.(stop) - row.(!u)) :: !runs;
      u := stop
    end
  done;
  let col = Array.make row.(n) 0 in
  List.iter
    (function
      | `Row (k, at) -> Array.blit rows.(k) 0 col at (Array.length rows.(k))
      | `Run (from, at, len) ->
        Array.blit t.col from col at len;
        if d < t.n - 1 then
          for x = at to at + len - 1 do
            if col.(x) > d then col.(x) <- col.(x) - 1
          done)
    !runs;
  { n; m = row.(n) / 2; row; col }

let local_index ids v =
  let rec search lo hi =
    if lo >= hi then raise Not_found
    else
      let mid = (lo + hi) / 2 in
      if ids.(mid) = v then mid
      else if ids.(mid) < v then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length ids)

(* The renumbering is monotone, so each member's row, renumbered, is
   still sorted: one pass over the members' rows, with no sort and no
   second replay. Rows are sized by the members' degrees up front;
   only a slice that drops edges (members with neighbors outside it)
   pays a final trim. *)
let induced t ids =
  let k = Array.length ids in
  let bound =
    Array.fold_left (fun acc v -> acc + t.row.(v + 1) - t.row.(v)) 0 ids
  in
  let row = Array.make (k + 1) 0 and col = Array.make bound 0 in
  let w = ref 0 in
  Array.iteri
    (fun i v ->
      for x = t.row.(v) to t.row.(v + 1) - 1 do
        match local_index ids t.col.(x) with
        | j ->
          col.(!w) <- j;
          incr w
        | exception Not_found -> ()
      done;
      row.(i + 1) <- !w)
    ids;
  let col = if !w = bound then col else Array.sub col 0 !w in
  { n = k; m = !w / 2; row; col }

(* Growable flat edge buffer feeding the two-pass build: the only
   allocation per edge is the occasional doubling, so streaming a
   million edges through it stays a few flat arrays end to end. *)
module Builder = struct
  type t = {
    bn : int;
    mutable len : int;
    mutable src : int array;
    mutable dst : int array;
  }

  let create ?(hint = 16) bn =
    if bn < 0 then invalid_arg "Csr.Builder.create: negative size";
    let cap = max hint 1 in
    { bn; len = 0; src = Array.make cap 0; dst = Array.make cap 0 }

  let add_edge b u v =
    check_edge b.bn u v;
    if b.len = Array.length b.src then begin
      let cap = 2 * b.len in
      let src = Array.make cap 0 and dst = Array.make cap 0 in
      Array.blit b.src 0 src 0 b.len;
      Array.blit b.dst 0 dst 0 b.len;
      b.src <- src;
      b.dst <- dst
    end;
    b.src.(b.len) <- u;
    b.dst.(b.len) <- v;
    b.len <- b.len + 1

  let length b = b.len

  let build b =
    of_edge_iter ~n:b.bn (fun f ->
        for k = 0 to b.len - 1 do
          f b.src.(k) b.dst.(k)
        done)
end

let of_ugraph g =
  let n = Ugraph.n g in
  let row = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    row.(u + 1) <- row.(u) + Ugraph.degree g u
  done;
  let col = Array.make row.(n) 0 in
  let cursor = Array.copy row in
  for u = 0 to n - 1 do
    (* Iset.iter is ascending, so each row comes out sorted. *)
    Iset.iter
      (fun v ->
        col.(cursor.(u)) <- v;
        cursor.(u) <- cursor.(u) + 1)
      (Ugraph.neighbors g u)
  done;
  { n; m = Ugraph.m g; row; col }

let n t = t.n
let m t = t.m

let check t u =
  if u < 0 || u >= t.n then invalid_arg "Csr: node out of range"

let degree t u =
  check t u;
  t.row.(u + 1) - t.row.(u)

let sorted_neighbors t u =
  check t u;
  Array.sub t.col t.row.(u) (t.row.(u + 1) - t.row.(u))

let iter_neighbors t u f =
  check t u;
  for k = t.row.(u) to t.row.(u + 1) - 1 do
    f t.col.(k)
  done

let for_all_neighbors t u f =
  check t u;
  let stop = t.row.(u + 1) in
  let rec go k = k >= stop || (f t.col.(k) && go (k + 1)) in
  go t.row.(u)

let fold_neighbors t u f acc =
  check t u;
  let acc = ref acc in
  for k = t.row.(u) to t.row.(u + 1) - 1 do
    acc := f !acc t.col.(k)
  done;
  !acc

let mem_edge t u v =
  check t u;
  check t v;
  let lo = ref t.row.(u) and hi = ref (t.row.(u + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = t.col.(mid) in
    if w = v then found := true
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* Rows are sorted and duplicate-free, so each adjacency set can be
   assembled by [Iset.of_list] on an already-sorted list and handed to
   the trusted [Ugraph.of_adjacency] constructor: linear in n + m
   instead of an AVL insertion per directed edge. *)
let to_ugraph t =
  let adj =
    Array.init t.n (fun u ->
        Iset.of_list
          (Array.to_list (Array.sub t.col t.row.(u) (t.row.(u + 1) - t.row.(u)))))
  in
  Ugraph.of_adjacency adj ~m:t.m

(* The arrays are canonical for the graph, so writing them out as
   fixed-width ints is a canonical rendering with no formatting. *)
let digest ~tag t =
  let b = Bytes.create (8 * (3 + Array.length t.row + Array.length t.col)) in
  let pos = ref 0 in
  let put x =
    Bytes.set_int64_le b !pos (Int64.of_int x);
    pos := !pos + 8
  in
  put tag;
  put t.n;
  put t.m;
  Array.iter put t.row;
  Array.iter put t.col;
  Digest.bytes b

let equal a b = a.n = b.n && a.m = b.m && a.row = b.row && a.col = b.col

(* The flat component layout: one BFS labelling (its queue is [order]
   itself, every node enqueued once), then one counting pass that
   rewrites [order] grouped by component and ascending within each
   group. No per-component list or set is built, so a graph made of
   many small components is laid out in O(n + m) total. Components are
   numbered by ascending smallest node, as [Traverse.component_ids]
   numbers them. *)
type components = { label : int array; order : int array; start : int array }

let components t =
  let label = Array.make t.n (-1) and order = Array.make t.n 0 in
  let k = ref 0 and tail = ref 0 in
  for s = 0 to t.n - 1 do
    if label.(s) < 0 then begin
      let cid = !k in
      incr k;
      label.(s) <- cid;
      let head = ref !tail in
      order.(!tail) <- s;
      incr tail;
      while !head < !tail do
        let u = order.(!head) in
        incr head;
        for p = t.row.(u) to t.row.(u + 1) - 1 do
          let v = t.col.(p) in
          if label.(v) < 0 then begin
            label.(v) <- cid;
            order.(!tail) <- v;
            incr tail
          end
        done
      done
    end
  done;
  let start = Array.make (!k + 1) 0 in
  Array.iter (fun c -> start.(c + 1) <- start.(c + 1) + 1) label;
  for c = 1 to !k do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let next = Array.sub start 0 !k in
  Array.iteri
    (fun v c ->
      order.(next.(c)) <- v;
      next.(c) <- next.(c) + 1)
    label;
  { label; order; start }

let n_components cs = Array.length cs.start - 1

let members cs c =
  Array.sub cs.order cs.start.(c) (cs.start.(c + 1) - cs.start.(c))

(* Every neighbour of a member is a member, and the segment is
   ascending, so renumbering by segment position is monotone: each row
   is copied through [local] in order, with nothing filtered, searched
   or sorted, into arrays sized exactly by the members' degrees. *)
let slice t cs ~local c =
  let lo = cs.start.(c) and hi = cs.start.(c + 1) in
  for i = lo to hi - 1 do
    local.(cs.order.(i)) <- i - lo
  done;
  if hi - lo = t.n then t
  else begin
    let k = hi - lo in
    let row = Array.make (k + 1) 0 in
    for i = 0 to k - 1 do
      let v = cs.order.(lo + i) in
      row.(i + 1) <- row.(i) + t.row.(v + 1) - t.row.(v)
    done;
    let col = Array.make row.(k) 0 in
    for i = 0 to k - 1 do
      let v = cs.order.(lo + i) in
      let shift = row.(i) - t.row.(v) in
      for x = t.row.(v) to t.row.(v + 1) - 1 do
        col.(shift + x) <- local.(t.col.(x))
      done
    done;
    { n = k; m = row.(k) / 2; row; col }
  end
