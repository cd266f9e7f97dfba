(* Reference oracles for the Phase 1/2 kernels: the straightforward
   implementations the library replaced with counted or linear-time
   versions. Each library version must return exactly what these return;
   test/test_kernel.ml checks that on random DAGs. *)

(* [Lower_Bound_FU] stepping every prefix/suffix length over every node:
   O(n·deadline), two fresh arrays per step. *)
let lower_bound ?(pipelined = fun _ -> false) g table a ~deadline =
  let clamp x lo hi = max lo (min x hi) in
  match Sched.Asap_alap.frames g table a ~deadline with
  | None -> None
  | Some (asap, alap) ->
      let n = Dfg.Graph.num_nodes g in
      let k = Fulib.Table.num_types table in
      let times = Fulib.Table.flat_times table in
      let time v = times.((v * k) + a.(v)) in
      let busy v = if pipelined a.(v) then 1 else time v in
      let bound = Array.make k 0 in
      for s = 1 to deadline do
        let prefix = Array.make k 0 and suffix = Array.make k 0 in
        for v = 0 to n - 1 do
          let t = a.(v) in
          prefix.(t) <- prefix.(t) + clamp (s - alap.(v)) 0 (busy v);
          suffix.(t) <-
            suffix.(t) + clamp (asap.(v) + busy v - (deadline - s)) 0 (busy v)
        done;
        for t = 0 to k - 1 do
          let need w = (w + s - 1) / s in
          bound.(t) <- max bound.(t) (max (need prefix.(t)) (need suffix.(t)))
        done
      done;
      Array.iter (fun t -> if bound.(t) = 0 then bound.(t) <- 1) a;
      Some bound

(* The smaller-tree rule by building both expansions (the transposed one
   through a transposed graph) and comparing their sizes. Raises
   [Dfg.Expand.Too_large] when either expansion exceeds [max_nodes]. *)
let choose_tree ?max_nodes g =
  let forward = Dfg.Expand.expand ?max_nodes g in
  let transposed = Dfg.Expand.expand ?max_nodes (Dfg.Transpose.transpose g) in
  if
    Dfg.Graph.num_nodes forward.Dfg.Expand.graph
    <= Dfg.Graph.num_nodes transposed.Dfg.Expand.graph
  then (Assign.Dfg_assign.Forward, forward)
  else (Assign.Dfg_assign.Transposed, transposed)

(* [Min_FU_Scheduling] with a fresh node list, filter and polymorphic
   tuple sort at every control step. *)
let min_resource ?(pipelined = fun _ -> false) g table a ~deadline =
  match Sched.Asap_alap.frames g table a ~deadline with
  | None -> None
  | Some (_, alap) -> (
      match lower_bound ~pipelined g table a ~deadline with
      | None -> None
      | Some lower_bound ->
          let n = Dfg.Graph.num_nodes g in
          let k = Fulib.Table.num_types table in
          let times = Fulib.Table.flat_times table in
          let time v = times.((v * k) + a.(v)) in
          let capacity = Array.copy lower_bound in
          let occupancy = Array.make_matrix k (max deadline 1) 0 in
          let start = Array.make n (-1) in
          let unscheduled_preds =
            Array.init n (fun v -> Dfg.Graph.dag_in_degree g v)
          in
          let pred_finish = Array.make n 0 in
          let last_busy v step =
            if pipelined a.(v) then step else step + time v - 1
          in
          let free_for v step =
            let t = a.(v) in
            let rec go s =
              s > last_busy v step
              || (occupancy.(t).(s) < capacity.(t) && go (s + 1))
            in
            go step
          in
          let occupy v step =
            let t = a.(v) in
            start.(v) <- step;
            for s = step to last_busy v step do
              occupancy.(t).(s) <- occupancy.(t).(s) + 1;
              if occupancy.(t).(s) > capacity.(t) then
                capacity.(t) <- occupancy.(t).(s)
            done;
            Dfg.Graph.iter_dag_succs g v (fun w ->
                unscheduled_preds.(w) <- unscheduled_preds.(w) - 1;
                pred_finish.(w) <- max pred_finish.(w) (step + time v))
          in
          let ready step v =
            start.(v) < 0 && unscheduled_preds.(v) = 0 && pred_finish.(v) <= step
          in
          for step = 0 to deadline - 1 do
            for v = 0 to n - 1 do
              if ready step v && alap.(v) = step then occupy v step
            done;
            let candidates = List.filter (ready step) (List.init n (fun i -> i)) in
            let by_slack =
              List.sort (fun v w -> compare (alap.(v), v) (alap.(w), w)) candidates
            in
            List.iter (fun v -> if free_for v step then occupy v step) by_slack
          done;
          let schedule = { Sched.Schedule.start; assignment = Array.copy a } in
          Some
            {
              Sched.Min_resource.schedule;
              config = Sched.Schedule.peak_usage ~pipelined table schedule;
              lower_bound;
            })
