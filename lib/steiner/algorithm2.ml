open Graphs

let log_src =
  Logs.Src.create "minconn.algorithm2" ~doc:"Algorithm 2 (Theorem 5)"

module Log = (val Logs.src_log log_src : Logs.LOG)

let solve ?order ?budget ?(trace = Observe.Trace.disabled)
    ?(metrics = Observe.Metrics.disabled) g ~p =
  match Traverse.component_containing g p with
  | None -> None
  | Some comp ->
    (* Nodes of [comp] the caller's order leaves out follow it in
       increasing id order. *)
    let order =
      let listed = match order with Some o -> o | None -> [] in
      listed @ Iset.elements (Iset.diff comp (Iset.of_list listed))
    in
    Observe.Trace.span trace "algorithm2"
      ~attrs:[ ("component", Observe.Trace.Int (Iset.cardinal comp)) ]
      (fun () ->
        let steps = Observe.Metrics.counter metrics "elimination.steps" in
        let before = Observe.Metrics.count steps in
        let survivors =
          Cover.eliminate_redundant ~order ?budget ~steps g ~within:comp ~p
        in
        Observe.Metrics.observe
          (Observe.Metrics.histogram metrics "elimination.steps_per_solve")
          (float_of_int (Observe.Metrics.count steps - before));
        Observe.Trace.add_attr trace "survivors"
          (Observe.Trace.Int (Iset.cardinal survivors));
        Log.debug (fun m ->
            m "eliminated %d of %d component nodes; survivors %a"
              (Iset.cardinal comp - Iset.cardinal survivors)
              (Iset.cardinal comp) Iset.pp survivors);
        Tree.of_node_set g survivors)
