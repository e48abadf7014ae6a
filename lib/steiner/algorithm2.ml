open Graphs

let log_src =
  Logs.Src.create "minconn.algorithm2" ~doc:"Algorithm 2 (Theorem 5)"

module Log = (val Logs.src_log log_src : Logs.LOG)

let solve_csr ?budget ?(trace = Observe.Trace.disabled)
    ?(metrics = Observe.Metrics.disabled) csr ~p =
  let n = Csr.n csr in
  Observe.Trace.span trace "algorithm2"
    ~attrs:[ ("component", Observe.Trace.Int n) ]
    (fun () ->
      match Cover.seed csr ~p with
      | None -> None
      | Some ids ->
        let k = Array.length ids in
        Observe.Trace.add_attr trace "seed" (Observe.Trace.Int k);
        let sub = Csr.induced csr ids in
        let steps = Observe.Metrics.counter metrics "elimination.steps" in
        let before = Observe.Metrics.count steps in
        let survivors =
          Cover.eliminate ?budget ~steps ~drop:Cover.Node sub
            ~p:(Iset.map (Csr.local_index ids) p)
            (List.init k Fun.id)
        in
        Observe.Metrics.observe
          (Observe.Metrics.histogram metrics "elimination.steps_per_solve")
          (float_of_int (Observe.Metrics.count steps - before));
        Observe.Trace.add_attr trace "survivors"
          (Observe.Trace.Int (Iset.cardinal survivors));
        Log.debug (fun m ->
            m "eliminated %d of %d seed nodes (component %d); survivors %a"
              (k - Iset.cardinal survivors)
              k n Iset.pp survivors);
        Tree.of_csr_node_set sub survivors |> Option.map (Tree.relabel ids))

let solve ?budget ?trace ?metrics g ~p =
  solve_csr ?budget ?trace ?metrics (Csr.of_ugraph g) ~p
