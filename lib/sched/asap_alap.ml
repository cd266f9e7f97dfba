let asap g table a =
  let n = Dfg.Graph.num_nodes g in
  let k = Fulib.Table.num_types table in
  let times = Fulib.Table.flat_times table in
  let start = Array.make n 0 in
  Array.iter
    (fun v ->
      let ready =
        Dfg.Graph.fold_dag_preds g v ~init:0 ~f:(fun acc p ->
            Int.max acc (start.(p) + times.((p * k) + a.(p))))
      in
      start.(v) <- ready)
    (Dfg.Graph.topo_arr g);
  start

let alap g table a ~deadline =
  let n = Dfg.Graph.num_nodes g in
  let k = Fulib.Table.num_types table in
  let times = Fulib.Table.flat_times table in
  let start = Array.make n 0 in
  let feasible = ref true in
  Array.iter
    (fun v ->
      let latest_finish =
        Dfg.Graph.fold_dag_succs g v ~init:deadline ~f:(fun acc s ->
            Int.min acc start.(s))
      in
      start.(v) <- latest_finish - times.((v * k) + a.(v));
      if start.(v) < 0 then feasible := false)
    (Dfg.Graph.post_arr g);
  if !feasible then Some start else None

let frames g table a ~deadline =
  match alap g table a ~deadline with
  | None -> None
  | Some late -> Some (asap g table a, late)

let slack g table a ~deadline =
  let early = asap g table a in
  Option.map (Array.map2 (fun e l -> l - e) early) (alap g table a ~deadline)
