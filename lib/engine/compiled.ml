open Graphs
open Bipartite

type component = {
  nodes : Iset.t;
  cprofile : Classify.profile option Atomic.t;
}

type t = {
  graph : Bigraph.t;
  comp_id : int array;
  components : component array;
}

type delta_stats = {
  op : Delta.op;
  noop : bool;
  fallback : bool;
  recompiled : int list;
  reused : int;
}

let graph t = t.graph
let ugraph t = Bigraph.ugraph t.graph
let n_components t = Array.length t.components

(* A component's profile is classified once, on its slice, by whichever
   caller first needs it. Two threads that race here both classify the
   same slice and store equal immutable profiles, so the write is
   idempotent; a [Lazy.t] would instead raise [Undefined] in the thread
   that forces it second. *)
let classify ?(trace = Observe.Trace.disabled) c slice =
  match Atomic.get c.cprofile with
  | Some p -> p
  | None ->
    let p = Classify.profile_connected ~trace slice in
    Atomic.set c.cprofile (Some p);
    p

let profile t =
  Classify.combine
    (Array.map
       (fun c ->
         match Atomic.get c.cprofile with
         | Some p -> p
         | None -> classify c (fst (Bigraph.induced t.graph c.nodes)))
       t.components)

(* The CSR's arrays are canonical for the graph, so hashing them with
   [nl] (which, with n, fixes the sides) keys a schema whatever
   insertion order built it. *)
let schema_hash g =
  Digest.to_hex (Csr.digest ~tag:(Bigraph.nl g) (Bigraph.csr g))

(* --------------------------------------------------- compilation *)

(* Component [c]'s node set, each node mapped through [id]. *)
let node_set ?(id = Fun.id) cs c =
  let acc = ref [] in
  for i = cs.Csr.start.(c + 1) - 1 downto cs.Csr.start.(c) do
    acc := id cs.Csr.order.(i) :: !acc
  done;
  Iset.of_list !acc

(* A component enters a plan as its node set, unclassified: a query
   pays for the components it lands in, and a schema edit replaces
   the components it touches without classifying anything. *)
let component nodes = { nodes; cprofile = Atomic.make None }

let compile ?(trace = Observe.Trace.disabled)
    ?(metrics = Observe.Metrics.disabled) graph =
  (* Compilation reads the CSR only: the set view is never derived. *)
  let c = Bigraph.csr graph in
  Observe.Trace.span trace "compile"
    ~attrs:
      [
        ("nodes", Observe.Trace.Int (Csr.n c));
        ("edges", Observe.Trace.Int (Csr.m c));
      ]
  @@ fun () ->
  let cs =
    Observe.Trace.span trace "compile.components" (fun () -> Csr.components c)
  in
  let components =
    Array.init (Csr.n_components cs) (fun k -> component (node_set cs k))
  in
  Observe.Trace.add_attr trace "components"
    (Observe.Trace.Int (Array.length components));
  Observe.Metrics.incr (Observe.Metrics.counter metrics "engine.compiles");
  { graph; comp_id = cs.Csr.label; components }

(* ------------------------------------------------ delta application *)

(* Rebuild the plan around the kept components of [t] (all but the
   ascending old indices [dirty]) and fresh, unclassified ones. A kept
   component keeps its memo cell, shared with the old plan: its slice
   is the same in both graphs. The array comes out in the order a fresh
   compile produces — ascending minimum element, as
   [Traverse.component_ids] numbers components — so a patched plan and
   a from-scratch plan agree component index for component index. The
   kept components are in that order already and keep their minima, so
   the few rebuilt ones are sorted and merged in at positions found by
   binary search; [comp_id] is then one flat relabel of the old array,
   with the rebuilt components' nodes written over it. *)
let replan ~metrics t graph ~dirty ~rebuilt_sets =
  let old = t.components in
  let rebuilt = Array.map component rebuilt_sets in
  let min_of c = Iset.min_elt c.nodes in
  Array.sort (fun a b -> compare (min_of a) (min_of b)) rebuilt;
  (* Old components before a rebuilt one: those with a smaller
     minimum, a prefix of [old]. *)
  let before c =
    let x = min_of c in
    let lo = ref 0 and hi = ref (Array.length old) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if min_of old.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let total = Array.length old - Array.length dirty + Array.length rebuilt in
  let components =
    if total = 0 then [||]
    else Array.make total (if rebuilt = [||] then old.(0) else rebuilt.(0))
  in
  let remap = Array.make (Array.length old) (-1) in
  let w = ref 0 and k = ref 0 and di = ref 0 in
  let keep_until p =
    while !k < p do
      if !di < Array.length dirty && dirty.(!di) = !k then incr di
      else begin
        components.(!w) <- old.(!k);
        remap.(!k) <- !w;
        incr w
      end;
      incr k
    done
  in
  let recompiled =
    Array.map
      (fun c ->
        keep_until (before c);
        components.(!w) <- c;
        incr w;
        !w - 1)
      rebuilt
  in
  keep_until (Array.length old);
  let n_old = Array.length t.comp_id in
  let comp_id =
    Array.init (Bigraph.n graph) (fun v ->
        if v < n_old then remap.(t.comp_id.(v)) else -1)
  in
  Array.iter
    (fun k -> Iset.iter (fun v -> comp_id.(v) <- k) components.(k).nodes)
    recompiled;
  Observe.Metrics.incr
    ~by:(Array.length rebuilt)
    (Observe.Metrics.counter metrics "engine.delta.recompiled_components");
  ({ graph; comp_id; components }, Array.to_list recompiled)

(* The connected components of [g]'s subgraph induced by [nodes], in
   [g]'s indices: one layout of the slice, so a deletion costs the
   component it hits, not the schema. *)
let split g nodes =
  let sub, ids = Bigraph.induced g nodes in
  let cs = Csr.components (Bigraph.csr sub) in
  List.init (Csr.n_components cs) (node_set ~id:(fun v -> ids.(v)) cs)

(* The plan half of a delta: [g'] is [Delta.apply t.graph op]'s
   result, already computed by the caller, and becomes the new plan's
   graph as it is. *)
let patch ?(trace = Observe.Trace.disabled)
    ?(metrics = Observe.Metrics.disabled) t op g' =
  if g' == t.graph then begin
    (* Physically unchanged graph: the delta was a no-op (re-adding a
       present edge, removing an absent one) and must not dirty any
       component — the plan itself is returned untouched. *)
    Observe.Metrics.incr (Observe.Metrics.counter metrics "engine.delta.noops");
    ( t,
      {
        op;
        noop = true;
        fallback = false;
        recompiled = [];
        reused = Array.length t.components;
      } )
  end
  else
    Observe.Trace.span trace "apply_delta"
      ~attrs:[ ("op", Observe.Trace.Str (Delta.to_string op)) ]
    @@ fun () ->
    Observe.Metrics.incr (Observe.Metrics.counter metrics "engine.delta.applied");
    let nl = Bigraph.nl t.graph in
    let total = Array.length t.components in
    (* Removing an interior relation shifts every higher underlying
       index, invalidating the node sets of untouched components
       wholesale — the conservative fallback the delta contract
       reserves for edits that break cached invariants. Only
       last-index removal is incremental. *)
    let interior_removal =
      match op with
      | Delta.Remove_relation j -> j < Bigraph.nr t.graph - 1
      | _ -> false
    in
    if interior_removal then begin
      Observe.Metrics.incr
        (Observe.Metrics.counter metrics "engine.delta.fallbacks");
      Observe.Trace.add_attr trace "fallback" (Observe.Trace.Bool true);
      let c = compile ~trace ~metrics g' in
      ( c,
        {
          op;
          noop = false;
          fallback = true;
          recompiled = List.init (Array.length c.components) Fun.id;
          reused = 0;
        } )
    end
    else begin
      (* Which old components does the edit touch, and what node sets
         replace them?  Insertion merges the endpoints' components;
         deletion may split one component into several (recomputed by
         [split] on the old component's slice). *)
      let dirty, rebuilt_sets =
        match op with
        | Delta.Add_edge (i, j) ->
          let a = t.comp_id.(i) and b = t.comp_id.(nl + j) in
          if a = b then ([ a ], [ t.components.(a).nodes ])
          else
            ( [ a; b ],
              [ Iset.union t.components.(a).nodes t.components.(b).nodes ] )
        | Delta.Remove_edge (i, _) ->
          let a = t.comp_id.(i) in
          ([ a ], split g' t.components.(a).nodes)
        | Delta.Add_relation attrs ->
          let v = Bigraph.n t.graph in
          let cids =
            Iset.fold
              (fun i acc ->
                if List.mem t.comp_id.(i) acc then acc else t.comp_id.(i) :: acc)
              attrs []
          in
          let nodes =
            List.fold_left
              (fun acc c -> Iset.union acc t.components.(c).nodes)
              (Iset.singleton v) cids
          in
          (cids, [ nodes ])
        | Delta.Remove_relation j ->
          let v = nl + j in
          let a = t.comp_id.(v) in
          let rest = Iset.remove v t.components.(a).nodes in
          ([ a ], split g' rest)
      in
      let t', recompiled =
        replan ~metrics t g'
          ~dirty:(Array.of_list (List.sort_uniq compare dirty))
          ~rebuilt_sets:(Array.of_list rebuilt_sets)
      in
      Observe.Trace.add_attr trace "recompiled"
        (Observe.Trace.Int (List.length recompiled));
      Observe.Trace.add_attr trace "reused"
        (Observe.Trace.Int (total - List.length dirty));
      ( t',
        {
          op;
          noop = false;
          fallback = false;
          recompiled;
          reused = total - List.length dirty;
        } )
    end

let patch_all ?trace ?metrics t steps =
  let t, stats =
    List.fold_left
      (fun (t, acc) (op, g') ->
        let t', s = patch ?trace ?metrics t op g' in
        (t', s :: acc))
      (t, []) steps
  in
  (t, List.rev stats)

let apply_delta ?trace ?metrics t op =
  Result.map (patch ?trace ?metrics t op) (Delta.apply t.graph op)


let apply_deltas ?trace ?metrics t ops =
  let rec go t acc k = function
    | [] -> Ok (t, List.rev acc)
    | op :: rest -> (
      match apply_delta ?trace ?metrics t op with
      | Ok (t', stats) -> go t' (stats :: acc) (k + 1) rest
      | Error msg ->
        Error
          (Printf.sprintf "delta %d (%s): %s" k (Delta.to_string op) msg))
  in
  go t [] 1 ops
