open Graphs

let log_src =
  Logs.Src.create "minconn.algorithm2" ~doc:"Algorithm 2 (Theorem 5)"

module Log = (val Logs.src_log log_src : Logs.LOG)

let solve_csr ?order ?budget ?(trace = Observe.Trace.disabled)
    ?(metrics = Observe.Metrics.disabled) csr ~p =
  let n = Csr.n csr in
  let order = match order with Some o -> o | None -> List.init n Fun.id in
  Observe.Trace.span trace "algorithm2"
    ~attrs:[ ("component", Observe.Trace.Int n) ]
    (fun () ->
      let steps = Observe.Metrics.counter metrics "elimination.steps" in
      let before = Observe.Metrics.count steps in
      let survivors =
        Cover.eliminate ?budget ~steps ~drop:Cover.Node csr ~p order
      in
      Observe.Metrics.observe
        (Observe.Metrics.histogram metrics "elimination.steps_per_solve")
        (float_of_int (Observe.Metrics.count steps - before));
      Observe.Trace.add_attr trace "survivors"
        (Observe.Trace.Int (Iset.cardinal survivors));
      Log.debug (fun m ->
          m "eliminated %d of %d component nodes; survivors %a"
            (n - Iset.cardinal survivors)
            n Iset.pp survivors);
      Tree.of_csr_node_set csr survivors)

(* Nodes of the component the caller's order leaves out follow it in
   increasing id order. *)
let solve ?order ?budget ?trace ?metrics g ~p =
  match Traverse.component_containing g p with
  | None -> None
  | Some comp ->
    let listed = match order with Some o -> o | None -> [] in
    let order = listed @ Iset.elements (Iset.diff comp (Iset.of_list listed)) in
    let csr, ids, order = Cover.slice ~order g ~within:comp in
    solve_csr ~order ?budget ?trace ?metrics csr
      ~p:(Iset.map (Csr.local_index ids) p)
    |> Option.map (Tree.relabel ids)
