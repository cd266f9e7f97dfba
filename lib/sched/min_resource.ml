type result = {
  schedule : Schedule.t;
  config : Config.t;
  lower_bound : Config.t;
}

let naive_config table a =
  let counts = Array.make (Fulib.Table.num_types table) 0 in
  Array.iter (fun t -> counts.(t) <- counts.(t) + 1) a;
  counts

let run ?(pipelined = fun _ -> false) ?frames g table a ~deadline =
  let frames =
    match frames with
    | Some f -> Some f
    | None -> Asap_alap.frames g table a ~deadline
  in
  match frames with
  | None -> None
  | Some ((_, alap) as frames) -> (
      match Lower_bound.per_type ~pipelined ~frames g table a ~deadline with
      | None -> None
      | Some lower_bound ->
          let n = Dfg.Graph.num_nodes g in
          let k = Fulib.Table.num_types table in
          let times = Fulib.Table.flat_times table in
          let time v = times.((v * k) + a.(v)) in
          let capacity = Array.copy lower_bound in
          (* occupancy.(t).(s) = instances of type t busy during step s *)
          let occupancy = Array.make_matrix k (Int.max deadline 1) 0 in
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
                pred_finish.(w) <- Int.max pred_finish.(w) (step + time v))
          in
          let ready step v =
            start.(v) < 0 && unscheduled_preds.(v) = 0 && pred_finish.(v) <= step
          in
          (* Unscheduled nodes in least-slack order (ALAP start, then id),
             sorted once; nodes sharing an ALAP start form a run in
             ascending id. Scheduled nodes are dropped as the steps go. *)
          let pending = Array.init n Fun.id in
          Array.sort
            (fun v w ->
              let c = Int.compare alap.(v) alap.(w) in
              if c <> 0 then c else Int.compare v w)
            pending;
          let live = ref n in
          let snapshot = Array.make n 0 in
          for step = 0 to deadline - 1 do
            (* Deadline-critical nodes first: ALAP start = now, start whatever
               the cost in new FU instances. They are the run of [pending]
               with ALAP start [step], after any unscheduled node whose ALAP
               start has passed. *)
            let i = ref 0 in
            while !i < !live && alap.(pending.(!i)) < step do
              incr i
            done;
            while !i < !live && alap.(pending.(!i)) = step do
              let v = pending.(!i) in
              if ready step v then occupy v step;
              incr i
            done;
            (* Fill remaining capacity with the nodes ready now, least slack
               first, without growing the configuration; compact [pending]
               in the same pass. *)
            let kept = ref 0 and ready_now = ref 0 in
            for j = 0 to !live - 1 do
              let v = pending.(j) in
              if start.(v) < 0 then begin
                pending.(!kept) <- v;
                incr kept;
                if ready step v then begin
                  snapshot.(!ready_now) <- v;
                  incr ready_now
                end
              end
            done;
            live := !kept;
            for j = 0 to !ready_now - 1 do
              let v = snapshot.(j) in
              if free_for v step then occupy v step
            done
          done;
          let schedule = { Schedule.start; assignment = Array.copy a } in
          (* the Min_FU configuration is derived from the finished
             schedule's occupancy — this is the trace's "config" phase *)
          let config =
            Obs.Span.with_ "phase.config" (fun () ->
                Schedule.peak_usage ~pipelined table schedule)
          in
          Some { schedule; config; lower_bound })
