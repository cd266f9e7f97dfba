(* Differential tests for the flat solver-context layer: the CSR graph
   views, flat table views, flat/incremental DP kernels, threaded
   ASAP/ALAP frames, the counted tree orientation and the linear-time
   lower bound and list scheduler must be bit-identical to the reference
   (pre-refactor) implementations they replaced. *)

let of_seed f =
  QCheck.make ~print:string_of_int QCheck.Gen.(map abs int) |> fun arb ->
  (arb, f)

let prop name count (arb, f) =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let instance ?(max_nodes = 12) ?(types = 3) ?(tree = false) seed =
  let rng = Workloads.Prng.create seed in
  let n = 1 + Workloads.Prng.int rng max_nodes in
  let g =
    if tree then Workloads.Random_dfg.random_tree rng ~n ~max_children:3
    else Workloads.Random_dfg.random_dag rng ~n ~extra_edges:3
  in
  let lib =
    Fulib.Library.make (Array.init types (fun i -> Printf.sprintf "T%d" i))
  in
  let tbl =
    Workloads.Tables.random_arbitrary rng ~library:lib ~num_nodes:n ~max_time:4
      ~max_cost:9
  in
  let tmin = Assign.Assignment.min_makespan g tbl in
  let deadline = tmin + Workloads.Prng.int rng 8 in
  (g, tbl, deadline)

let same_opt a b =
  match (a, b) with
  | Some (x, c), Some (y, c') -> x = y && c = c'
  | None, None -> true
  | _ -> false

(* --- CSR view invariants ---------------------------------------------- *)

let csr_matches_lists =
  of_seed (fun seed ->
      let g, _, _ = instance seed in
      let n = Dfg.Graph.num_nodes g in
      let ok = ref true in
      for v = 0 to n - 1 do
        ok :=
          !ok
          && Dfg.Graph.fold_dag_succs g v ~init:[] ~f:(fun acc w -> w :: acc)
             = List.rev (Dfg.Graph.dag_succs g v)
          && Dfg.Graph.fold_dag_preds g v ~init:[] ~f:(fun acc w -> w :: acc)
             = List.rev (Dfg.Graph.dag_preds g v)
          && Dfg.Graph.dag_out_degree g v
             = List.length (Dfg.Graph.dag_succs g v)
          && Dfg.Graph.dag_in_degree g v = List.length (Dfg.Graph.dag_preds g v)
      done;
      !ok
      && Array.to_list (Dfg.Graph.topo_arr g) = Dfg.Topo.sort g
      && Array.to_list (Dfg.Graph.post_arr g) = Dfg.Topo.post_order g
      && Array.to_list (Dfg.Graph.roots_arr g) = Dfg.Graph.roots g
      && Array.to_list (Dfg.Graph.leaves_arr g) = Dfg.Graph.leaves g)

let flat_table_matches =
  of_seed (fun seed ->
      let _, tbl, _ = instance seed in
      let n = Fulib.Table.num_nodes tbl and k = Fulib.Table.num_types tbl in
      let times = Fulib.Table.flat_times tbl in
      let costs = Fulib.Table.flat_costs tbl in
      let mt = Fulib.Table.min_times_arr tbl in
      let mc = Fulib.Table.min_costs_arr tbl in
      let ok = ref true in
      for v = 0 to n - 1 do
        ok := !ok && mt.(v) = Fulib.Table.min_time tbl v;
        ok := !ok && mc.(v) = Fulib.Table.min_cost tbl v;
        for t = 0 to k - 1 do
          ok :=
            !ok
            && times.((v * k) + t) = Fulib.Table.time tbl ~node:v ~ftype:t
            && costs.((v * k) + t) = Fulib.Table.cost tbl ~node:v ~ftype:t
        done
      done;
      !ok)

(* --- Flat kernels vs references --------------------------------------- *)

let tree_flat_equals_reference =
  of_seed (fun seed ->
      let g, tbl, deadline = instance ~tree:true seed in
      same_opt
        (Assign.Tree_assign.solve_with_cost g tbl ~deadline)
        (Assign.Tree_assign.solve_with_cost_reference g tbl ~deadline))

let path_flat_equals_reference =
  of_seed (fun seed ->
      let rng = Workloads.Prng.create seed in
      let n = 1 + Workloads.Prng.int rng 10 in
      let lib = Fulib.Library.make [| "T0"; "T1" |] in
      let tbl =
        Workloads.Tables.random_arbitrary rng ~library:lib ~num_nodes:n
          ~max_time:4 ~max_cost:9
      in
      let deadline = Workloads.Prng.int rng 30 in
      same_opt
        (Assign.Path_assign.solve_with_cost tbl ~deadline)
        (Assign.Path_assign.solve_with_cost_reference tbl ~deadline))

let repeat_incremental_equals_reference =
  of_seed (fun seed ->
      let g, tbl, deadline = instance seed in
      Assign.Dfg_assign.repeat g tbl ~deadline
      = Assign.Dfg_assign.repeat_reference g tbl ~deadline)

let repeat_tight_deadlines =
  of_seed (fun seed ->
      (* Sweep deadlines below and above Tmin so infeasible cases and the
         incremental kernel's dirty-row paths are both exercised. *)
      let g, tbl, _ = instance seed in
      let tmin = Assign.Assignment.min_makespan g tbl in
      List.for_all
        (fun deadline ->
          Assign.Dfg_assign.repeat g tbl ~deadline
          = Assign.Dfg_assign.repeat_reference g tbl ~deadline)
        [ tmin - 1; tmin; tmin + 3 ])

let dp_row_ctx_equals_plain =
  of_seed (fun seed ->
      let g, tbl, deadline = instance ~tree:true seed in
      let ctx = Assign.Context.create g tbl in
      let n = Dfg.Graph.num_nodes g in
      let ok = ref true in
      for node = 0 to n - 1 do
        ok :=
          !ok
          && Assign.Tree_assign.dp_row ~ctx g tbl ~deadline ~node
             = Assign.Tree_assign.dp_row g tbl ~deadline ~node
      done;
      (* Forest cost from the cached rows equals the reference total. *)
      (match Assign.Tree_assign.solve_with_cost_reference g tbl ~deadline with
      | Some (_, total) ->
          let roots = Dfg.Graph.roots_arr g in
          let sum =
            Array.fold_left
              (fun acc r ->
                acc + (Assign.Context.dp_row ctx ~deadline ~node:r).(deadline))
              0 roots
          in
          ok := !ok && sum = total
      | None -> ());
      !ok)

let frames_equal_asap_alap =
  of_seed (fun seed ->
      let g, tbl, deadline = instance seed in
      match Assign.Dfg_assign.once g tbl ~deadline with
      | None -> true
      | Some a -> (
          match
            ( Sched.Asap_alap.frames g tbl a ~deadline,
              Sched.Asap_alap.alap g tbl a ~deadline )
          with
          | Some (asap, alap), Some alap' ->
              asap = Sched.Asap_alap.asap g tbl a && alap = alap'
          | None, None -> true
          | _ -> false))

let min_resource_frames_threading =
  of_seed (fun seed ->
      let g, tbl, deadline = instance seed in
      match Assign.Dfg_assign.once g tbl ~deadline with
      | None -> true
      | Some a -> (
          let plain = Sched.Min_resource.run g tbl a ~deadline in
          let threaded =
            match Sched.Asap_alap.frames g tbl a ~deadline with
            | None -> None
            | Some frames -> Sched.Min_resource.run ~frames g tbl a ~deadline
          in
          match (plain, threaded) with
          | Some r, Some r' ->
              r.Sched.Min_resource.schedule = r'.Sched.Min_resource.schedule
              && r.config = r'.config
              && r.lower_bound = r'.lower_bound
          | None, None -> true
          | _ -> false))

(* --- Phase 1/2 kernels against the test-side oracles ------------------ *)

(* A random DAG with repeated edges and delayed edges, a table that is
   plain (3 types), DVFS-leveled (k = 9) or memory-constrained, a deadline
   in [min_makespan, 3 x min_makespan], an assignment (min-time or
   random, so some miss the deadline) and a random pipelined-type set. *)
let phase_instance seed =
  let rng = Workloads.Prng.create seed in
  let int = Workloads.Prng.int rng in
  let n = 1 + int 14 in
  let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:(int 5) in
  let edges = Dfg.Graph.edges g in
  let repeated = List.filter (fun _ -> int 4 = 0) edges in
  let delayed =
    List.init (int 3) (fun _ ->
        { Dfg.Graph.src = int n; dst = int n; delay = 1 + int 2; size = 0 })
  in
  let g =
    Dfg.Graph.of_edges ~names:(Dfg.Graph.names g)
      ~ops:(Array.init n (Dfg.Graph.op g))
      (edges @ repeated @ delayed)
  in
  let variant = int 3 in
  let g = if variant = 2 then Workloads.Random_dfg.with_sizes rng g else g in
  let tbl =
    Workloads.Tables.random_arbitrary rng ~library:Fulib.Library.standard3
      ~num_nodes:n ~max_time:4 ~max_cost:9
  in
  let tbl =
    match variant with
    | 1 ->
        fst
          (Fulib.Dvfs.expand tbl ~levels:(Fulib.Dvfs.uniform ~levels:3 ~types:3))
    | 2 -> Workloads.Tables.mem_tight g tbl
    | _ -> tbl
  in
  let k = Fulib.Table.num_types tbl in
  let tmin = Assign.Assignment.min_makespan g tbl in
  let deadline = tmin + int ((2 * tmin) + 1) in
  let a =
    if int 3 = 0 then Array.init n (fun _ -> int k)
    else Array.init n (Fulib.Table.min_time_type tbl)
  in
  let pipe = Array.init k (fun _ -> int 3 = 0) in
  (g, tbl, deadline, a, Array.get pipe)

let lower_bound_equals_reference =
  of_seed (fun seed ->
      let g, tbl, deadline, a, pipelined = phase_instance seed in
      Sched.Lower_bound.per_type ~pipelined g tbl a ~deadline
      = Phase_reference.lower_bound ~pipelined g tbl a ~deadline
      && Sched.Lower_bound.per_type g tbl a ~deadline
         = Phase_reference.lower_bound g tbl a ~deadline)

let min_resource_equals_reference =
  of_seed (fun seed ->
      let g, tbl, deadline, a, pipelined = phase_instance seed in
      Sched.Min_resource.run ~pipelined g tbl a ~deadline
      = Phase_reference.min_resource ~pipelined g tbl a ~deadline
      && Sched.Min_resource.run g tbl a ~deadline
         = Phase_reference.min_resource g tbl a ~deadline)

let same_tree (o, t) (o', t') =
  o = o'
  && t.Dfg.Expand.origin = t'.Dfg.Expand.origin
  && t.Dfg.Expand.copies = t'.Dfg.Expand.copies
  && Dfg.Graph.edges t.Dfg.Expand.graph = Dfg.Graph.edges t'.Dfg.Expand.graph

let choose_tree_equals_reference =
  of_seed (fun seed ->
      let g, _, _, _, _ = phase_instance seed in
      let size tree = Dfg.Graph.num_nodes tree.Dfg.Expand.graph in
      Dfg.Expand.sizes g
      = ( size (Dfg.Expand.expand g),
          size (Dfg.Expand.expand (Dfg.Transpose.transpose g)) )
      && same_tree (Assign.Dfg_assign.choose_tree g)
           (Phase_reference.choose_tree g))

(* A kernel over an expanded random DAG, with a random placement mask
   half the time, together with the caller-side copies of its rows. *)
let kernel_instance seed =
  let rng = Workloads.Prng.create seed in
  let int = Workloads.Prng.int rng in
  let n = 1 + int 10 in
  let dag = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:(int 4) in
  let tree = (Dfg.Expand.expand dag).Dfg.Expand.graph in
  let tn = Dfg.Graph.num_nodes tree and k = 1 + int 4 in
  let row () = Array.init k (fun _ -> 1 + int 4) in
  let times = Array.concat (List.init tn (fun _ -> row ())) in
  let costs = Array.init (tn * k) (fun _ -> int 10) in
  let forbid =
    if int 2 = 0 then Some (Array.init (tn * k) (fun _ -> int 5 = 0)) else None
  in
  let deadline = int (4 * Dfg.Graph.num_nodes tree) in
  (rng, tree, k, times, costs, forbid, deadline)

(* Random pin/refresh sequences (with solves in between, so dirty chains
   are recomputed incrementally), mirrored on plain arrays: afterwards
   every DP row must equal the row of a fresh kernel built on the current
   rows, and [type_at] must agree with [solve]'s full backtrack. *)
let kernel_pin_refresh_matches_fresh =
  of_seed (fun seed ->
      let rng, tree, k, times, costs, forbid, deadline = kernel_instance seed in
      let int = Workloads.Prng.int rng in
      let tn = Dfg.Graph.num_nodes tree in
      let kernel =
        Assign.Tree_kernel.create ?forbid tree ~times:(Array.copy times)
          ~costs:(Array.copy costs) ~k ~deadline
      in
      let mask = Option.map Array.copy forbid in
      for _ = 1 to int 12 do
        let node = int tn in
        let row = node * k in
        (if int 2 = 0 then begin
           let ftype = int k in
           Assign.Tree_kernel.pin kernel ~node ~ftype;
           let t = times.(row + ftype) and c = costs.(row + ftype) in
           Array.fill times row k t;
           Array.fill costs row k c;
           Option.iter (fun m -> Array.fill m row k m.(row + ftype)) mask
         end
         else begin
           let rt = Array.init k (fun _ -> 1 + int 4) in
           let rc = Array.init k (fun _ -> int 10) in
           Assign.Tree_kernel.refresh kernel ~node ~times:rt ~costs:rc;
           Array.blit rt 0 times row k;
           Array.blit rc 0 costs row k;
           Option.iter
             (fun m -> Array.blit (Option.get forbid) row m row k)
             mask
         end);
        if int 3 = 0 then ignore (Assign.Tree_kernel.solve kernel)
      done;
      let fresh =
        Assign.Tree_kernel.create ?forbid:mask tree ~times:(Array.copy times)
          ~costs:(Array.copy costs) ~k ~deadline
      in
      let rows_equal =
        List.for_all
          (fun node ->
            Assign.Tree_kernel.dp_row kernel ~node
            = Assign.Tree_kernel.dp_row fresh ~node)
          (List.init tn Fun.id)
      in
      let solved = Assign.Tree_kernel.solve kernel in
      rows_equal
      && same_opt solved (Assign.Tree_kernel.solve fresh)
      && Assign.Tree_kernel.feasible kernel = Option.is_some solved
      &&
      match solved with
      | None -> true
      | Some (ta, _) ->
          List.for_all
            (fun node -> Assign.Tree_kernel.type_at kernel ~node = ta.(node))
            (List.init tn Fun.id))

(* --- The six paper benchmarks ----------------------------------------- *)

let benchmark_table (name, g) =
  let seed =
    String.fold_left (fun acc c -> (acc * 31) + Char.code c) 17 name
  in
  let rng = Workloads.Prng.create seed in
  Workloads.Tables.for_graph rng ~library:Fulib.Library.standard3 g

let test_repeat_on_benchmarks () =
  List.iter
    (fun (name, g) ->
      let tbl = benchmark_table (name, g) in
      let tmin = Assign.Assignment.min_makespan g tbl in
      List.iter
        (fun deadline ->
          let inc = Assign.Dfg_assign.repeat g tbl ~deadline in
          let ref_ = Assign.Dfg_assign.repeat_reference g tbl ~deadline in
          Alcotest.(check bool)
            (Printf.sprintf "%s T=%d incremental = reference" name deadline)
            true (inc = ref_);
          match inc with
          | None -> ()
          | Some a ->
              Alcotest.(check bool)
                (Printf.sprintf "%s T=%d cost identical" name deadline)
                true
                (Option.map
                   (Assign.Assignment.total_cost tbl)
                   ref_
                = Some (Assign.Assignment.total_cost tbl a)))
        [ tmin; tmin + (tmin / 4); tmin + (tmin / 2) ])
    (Workloads.Filters.all ())

let test_synthesis_config_on_benchmarks () =
  (* Full two-phase runs stay unchanged under the threaded frames: the
     configurations Table 1/2 report are derived from these. *)
  List.iter
    (fun (name, g) ->
      let tbl = benchmark_table (name, g) in
      let tmin = Assign.Assignment.min_makespan g tbl in
      let deadline = tmin + (tmin / 4) in
      match
        (Core.Synthesis.solve
           (Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat ~deadline
              g tbl))
          .Core.Synthesis.result
      with
      | None ->
          Alcotest.failf "%s: synthesis infeasible at T=%d" name deadline
      | Some r ->
          let a = r.Core.Synthesis.assignment in
          let expected =
            match Sched.Min_resource.run g tbl a ~deadline with
            | Some m -> m.Sched.Min_resource.config
            | None -> Alcotest.failf "%s: scheduling infeasible" name
          in
          Alcotest.(check (list int))
            (Printf.sprintf "%s config unchanged" name)
            (Array.to_list expected)
            (Array.to_list r.Core.Synthesis.config))
    (Workloads.Filters.all ())

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "kernel"
    [
      ( "csr",
        [
          prop "csr adjacency/orders/roots match list views" 300
            csr_matches_lists;
          prop "flat table views match accessors" 300 flat_table_matches;
        ] );
      ( "flat kernels",
        [
          prop "tree flat DP = reference" 400 tree_flat_equals_reference;
          prop "path flat DP = reference" 400 path_flat_equals_reference;
          prop "incremental repeat = reference" 300
            repeat_incremental_equals_reference;
          prop "incremental repeat = reference (deadline sweep)" 200
            repeat_tight_deadlines;
          prop "dp_row via context = plain dp_row" 200 dp_row_ctx_equals_plain;
        ] );
      ( "frames",
        [
          prop "frames = (asap, alap)" 300 frames_equal_asap_alap;
          prop "min-resource with threaded frames unchanged" 200
            min_resource_frames_threading;
        ] );
      ( "oracles",
        [
          prop "lower bound = stepped reference" 400
            lower_bound_equals_reference;
          prop "min-resource = list-based reference" 400
            min_resource_equals_reference;
          prop "counted choose_tree = built-both reference" 300
            choose_tree_equals_reference;
          prop "pin/refresh rows = fresh kernel; type_at = backtrack" 400
            kernel_pin_refresh_matches_fresh;
        ] );
      ( "benchmarks",
        [
          quick "incremental repeat = reference on all six"
            test_repeat_on_benchmarks;
          quick "synthesis configurations unchanged"
            test_synthesis_config_on_benchmarks;
        ] );
    ]
