open Hypergraphs

type plan = Acyclic of Join_tree.t | Naive_fallback

let plan db =
  match Mcs.join_tree (Database.scheme_hypergraph db) with
  | Some jt -> Acyclic jt
  | None -> Naive_fallback

(* Output attributes must exist in the database and be pairwise
   distinct — both failure modes used to escape as an untyped
   [Invalid_argument] from deep inside [Ops.project]. *)
let check_output db output =
  let known = Database.attributes db in
  let seen = Hashtbl.create 8 in
  let rec go = function
    | [] -> Ok ()
    | a :: rest ->
      if Hashtbl.mem seen a then
        Error
          (Runtime.Errors.Invalid_instance
             ("duplicate output attribute '" ^ a ^ "'"))
      else if not (List.mem a known) then
        Error
          (Runtime.Errors.Invalid_instance
             ("unknown output attribute '" ^ a ^ "'"))
      else begin
        Hashtbl.add seen a ();
        go rest
      end
  in
  go output

let full_reducer ?(ctx = Exec.default) db jt =
  Observe.Trace.span (Exec.trace ctx) "relalg.reduce" @@ fun () ->
  let rels = Database.to_array db in
  let order = Join_tree.order jt in
  let parent = jt.Join_tree.parent in
  let q = Array.length order in
  (* Upward: reverse preorder visits every node before its parent, so
     each subtree is fully folded into its root's parent slot. *)
  for t = q - 1 downto 0 do
    let i = order.(t) in
    let p = parent.(i) in
    if p >= 0 then begin
      let pn, pr = rels.(p) in
      let _, cr = rels.(i) in
      rels.(p) <- (pn, Ops.semijoin ~ctx pr cr)
    end
  done;
  (* Downward: preorder, semijoin each child by its reduced parent. *)
  for t = 0 to q - 1 do
    let i = order.(t) in
    let p = parent.(i) in
    if p >= 0 then begin
      let cn, cr = rels.(i) in
      let _, pr = rels.(p) in
      rels.(i) <- (cn, Ops.semijoin ~ctx cr pr)
    end
  done;
  Database.of_array rels

let empty_result db ~output =
  Relation.make ~semantics:(Database.semantics db) ~attrs:output []

let naive_unchecked ctx db ~output =
  match Ops.join_all ~ctx (List.map snd (Database.relations db)) with
  | None -> empty_result db ~output
  | Some joined -> Ops.project ~ctx joined output

let acyclic_unchecked ctx db jt ~output =
  let reduced = full_reducer ~ctx db jt in
  Observe.Trace.span (Exec.trace ctx) "relalg.join" @@ fun () ->
  let rels = Database.to_array reduced in
  let rel_at i = snd rels.(i) in
  let kids = Join_tree.children_arrays jt in
  let in_output = Hashtbl.create 8 in
  List.iter (fun a -> Hashtbl.replace in_output a ()) output;
  let rec eval_subtree i =
    let joined =
      Array.fold_left
        (fun acc child -> Ops.natural_join ~ctx acc (eval_subtree child))
        (rel_at i) kids.(i)
    in
    let p = jt.Join_tree.parent.(i) in
    let keep_above = if p < 0 then [] else Relation.attrs (rel_at p) in
    (* Projecting early is what keeps intermediates output-bounded;
       keeping the separator with the parent preserves join keys, and
       in bag mode also multiplicities (the kept attributes determine
       each surviving row's contribution). *)
    let keep =
      List.filter
        (fun a -> Hashtbl.mem in_output a || List.mem a keep_above)
        (Relation.attrs joined)
    in
    Ops.project ~ctx joined keep
  in
  let root_results = List.map eval_subtree (Join_tree.roots jt) in
  match Ops.join_all ~ctx root_results with
  | None -> empty_result db ~output
  | Some r -> Ops.project ~ctx r output

let boundary ctx f =
  match Runtime.Budget.protect (Exec.budget ctx) f with
  | Ok r -> Ok r
  | Error _reason ->
    (* Yannakakis is the structured exact plan; exhaustion reports
       under that rung like the solver's structured algorithms do. *)
    Error (Runtime.Errors.Budget_exhausted Runtime.Errors.Exact_structured)

let evaluate_naive ?(ctx = Exec.default) db ~output =
  match check_output db output with
  | Error e -> Error e
  | Ok () -> boundary ctx (fun () -> naive_unchecked ctx db ~output)

let evaluate ?(ctx = Exec.default) db ~output =
  match check_output db output with
  | Error e -> Error e
  | Ok () ->
    boundary ctx (fun () ->
        match plan db with
        | Naive_fallback -> naive_unchecked ctx db ~output
        | Acyclic jt -> acyclic_unchecked ctx db jt ~output)
