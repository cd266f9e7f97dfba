type orientation = Forward | Transposed

let c_repeat_runs = Obs.Counter.make "repeat.runs"
let c_session_resolves = Obs.Counter.make "repeat.session_resolves"
let c_session_refreshed = Obs.Counter.make "repeat.session_refreshed_nodes"
let c_search_rounds = Obs.Counter.make "repeat_search.rounds"
let c_search_candidates = Obs.Counter.make "repeat_search.candidates"

let expand_oriented ?max_nodes orientation g =
  match orientation with
  | Forward -> Dfg.Expand.expand ?max_nodes g
  | Transposed -> Dfg.Expand.expand ?max_nodes (Dfg.Transpose.transpose g)

(* Both sizes are path counts, so only the winner is ever expanded. *)
let choose_tree ?(max_nodes = Dfg.Expand.default_max_nodes) g =
  let forward, transposed = Dfg.Expand.sizes ~max_nodes g in
  if Int.min forward transposed > max_nodes then
    raise (Dfg.Expand.Too_large max_nodes);
  let orientation = if forward <= transposed then Forward else Transposed in
  (orientation, expand_oriented ~max_nodes orientation g)

(* Among the tree copies of original node [v], pick the type with minimum
   execution time; break ties toward lower cost, then lower type index, so
   the choice is deterministic. [type_of c] is copy [c]'s tree type. *)
let min_time_choice table type_of copies v =
  let better t t' =
    let time ty = Fulib.Table.time table ~node:v ~ftype:ty in
    let cost ty = Fulib.Table.cost table ~node:v ~ftype:ty in
    if time t' < time t then t'
    else if time t' = time t && (cost t' < cost t || (cost t' = cost t && t' < t))
    then t'
    else t
  in
  match copies with
  | [] -> invalid_arg "Dfg_assign: node without copies"
  | c :: rest ->
      List.fold_left (fun acc c' -> better acc (type_of c')) (type_of c) rest

(* Project the table's flat rows through the expansion's origin map: tree
   copy [i] gets original node [origin.(i)]'s row. The result is owned by
   the caller (the kernel pins into it). *)
let project_flat table origin =
  let k = Fulib.Table.num_types table in
  let times = Fulib.Table.flat_times table in
  let costs = Fulib.Table.flat_costs table in
  let tn = Array.length origin in
  let pt = Array.make (tn * k) 0 and pc = Array.make (tn * k) 0 in
  for i = 0 to tn - 1 do
    Array.blit times (origin.(i) * k) pt (i * k) k;
    Array.blit costs (origin.(i) * k) pc (i * k) k
  done;
  (pt, pc)

(* Placement mask for an expanded tree under the memory model: copy [i]
   may not take a type whose capacity cannot even hold its ORIGINAL node's
   footprint. Footprints come from the original graph [g] (the tree may be
   transposed, which flips out-degrees), so the mask is projected through
   [origin] exactly like the table rows. [None] when unconstrained. *)
let project_forbid g table origin =
  if not (Assignment.mem_constrained g table) then None
  else begin
    let k = Fulib.Table.num_types table in
    let mem = Dfg.Graph.out_data_arr g in
    let caps = Fulib.Table.mem_capacities table in
    let tn = Array.length origin in
    let forbid = Array.make (tn * k) false in
    let any = ref false in
    for i = 0 to tn - 1 do
      for t = 0 to k - 1 do
        if mem.(origin.(i)) > caps.(t) then begin
          forbid.((i * k) + t) <- true;
          any := true
        end
      done
    done;
    if !any then Some forbid else None
  end

let tree_kernel ?forbid tree table ~deadline =
  let times, costs = project_flat table tree.Dfg.Expand.origin in
  Tree_kernel.create ?forbid tree.Dfg.Expand.graph ~times ~costs
    ~k:(Fulib.Table.num_types table) ~deadline

let solve_on_tree ?forbid tree table ~deadline =
  if deadline < 0 then None
  else if Dfg.Graph.num_nodes tree.Dfg.Expand.graph = 0 then Some [||]
  else
    Option.map fst (Tree_kernel.solve (tree_kernel ?forbid tree table ~deadline))

let once_on_tree tree g table ~deadline =
  let forbid = project_forbid g table tree.Dfg.Expand.origin in
  match solve_on_tree ?forbid tree table ~deadline with
  | None -> None
  | Some ta ->
      let n = Dfg.Graph.num_nodes g in
      let a = Array.make n 0 in
      for v = 0 to n - 1 do
        a.(v) <-
          min_time_choice table (Array.get ta) tree.Dfg.Expand.copies.(v) v
      done;
      Some a

let once_oriented ?max_nodes orientation g table ~deadline =
  let tree = expand_oriented ?max_nodes orientation g in
  once_on_tree tree g table ~deadline

let once ?max_nodes g table ~deadline =
  let _, tree = choose_tree ?max_nodes g in
  once_on_tree tree g table ~deadline

let order_dups tree order dups =
  (* Greatest copy count first; stable on ties (ascending id). *)
  let by_copies () =
    List.stable_sort
      (fun u v ->
        Int.compare
          (Dfg.Expand.copy_count tree v)
          (Dfg.Expand.copy_count tree u))
      dups
  in
  match order with
  | `By_id -> dups
  | `By_copies -> by_copies ()
  | `Reverse -> List.rev (by_copies ())

(* The Repeat fixing step on a kernel: solve, read only [v]'s copies (each
   one root-path walk, not a full backtrack) and pin them all to their
   min-time type, which is returned; [None] when the tree is infeasible. *)
let fix_copies kernel table copies v =
  if not (Tree_kernel.feasible kernel) then None
  else begin
    let t =
      min_time_choice table
        (fun c -> Tree_kernel.type_at kernel ~node:c)
        copies v
    in
    List.iter (fun copy -> Tree_kernel.pin kernel ~node:copy ~ftype:t) copies;
    Some t
  end

(* After the fixing passes: duplicated nodes keep their fixed types, the
   rest read the final tree solve. *)
let read_back table tree ta a =
  Array.iteri
    (fun v t ->
      if t < 0 then
        match tree.Dfg.Expand.copies.(v) with
        | [ c ] -> a.(v) <- ta.(c)
        | copies -> a.(v) <- min_time_choice table (Array.get ta) copies v)
    a;
  a

(* [DFG_Assign_Repeat], incremental: one kernel is created for the expanded
   tree, and each pinning pass re-solves only the DP rows of the pinned
   copies' ancestor chains (the rows below them are unaffected by the pin),
   instead of re-running the whole O(n·T·K) DP per duplicated node. *)
let repeat_with_order ?max_nodes ~order g table ~deadline =
  if deadline < 0 then None
  else begin
    Obs.Counter.incr c_repeat_runs;
    let _, tree = choose_tree ?max_nodes g in
    let dups = order_dups tree order (Dfg.Expand.duplicated_nodes tree) in
    let n = Dfg.Graph.num_nodes g in
    let a = Array.make n (-1) in
    let exception Infeasible in
    try
      if n = 0 then Some [||]
      else begin
        let forbid = project_forbid g table tree.Dfg.Expand.origin in
        let kernel = tree_kernel ?forbid tree table ~deadline in
        List.iter
          (fun v ->
            match fix_copies kernel table tree.Dfg.Expand.copies.(v) v with
            | None -> raise Infeasible
            | Some t -> a.(v) <- t)
          dups;
        match Tree_kernel.solve kernel with
        | None -> raise Infeasible
        | Some (ta, _) -> Some (read_back table tree ta a)
      end
    with Infeasible -> None
  end

let repeat ?max_nodes g table ~deadline =
  repeat_with_order ?max_nodes ~order:`By_copies g table ~deadline

(* --- Candidate-search Repeat ---------------------------------------- *)

(* Collapse flat [node * k + ftype] rows to the pinned type, the flat-array
   mirror of [Fulib.Table.pin]. *)
let pin_flat ~times ~costs ~k ~node ~ftype =
  let t = times.((node * k) + ftype) and c = costs.((node * k) + ftype) in
  Array.fill times (node * k) k t;
  Array.fill costs (node * k) k c

(* [DFG_Assign_Repeat] with a per-round candidate search: instead of fixing
   the duplicated nodes in a static order, each round re-solves the tree
   once per remaining duplicated node (that node pinned to its min-time
   choice under the current solve) and commits the candidate whose re-solve
   is cheapest — ties broken toward the lower node id. The candidate
   re-solves of a round are independent full DPs over private table copies,
   so they fan out over [pool]'s domains; the winner is picked from the
   order-preserved score array, which makes the parallel path bit-identical
   to the sequential one. *)
let repeat_search ?pool ?max_nodes g table ~deadline =
  if deadline < 0 then None
  else begin
    let n = Dfg.Graph.num_nodes g in
    if n = 0 then Some [||]
    else begin
      let pool =
        match pool with Some p -> p | None -> Par.Pool.global ()
      in
      let _, tree = choose_tree ?max_nodes g in
      Dfg.Graph.preheat tree.Dfg.Expand.graph;
      Fulib.Table.preheat table;
      let k = Fulib.Table.num_types table in
      (* master flat tables for the tree, pinned as winners are committed *)
      let times, costs = project_flat table tree.Dfg.Expand.origin in
      let forbid = project_forbid g table tree.Dfg.Expand.origin in
      let solve_copy () =
        Tree_kernel.solve
          (Tree_kernel.create ?forbid tree.Dfg.Expand.graph
             ~times:(Array.copy times) ~costs:(Array.copy costs) ~k ~deadline)
      in
      let a = Array.make n (-1) in
      let exception Infeasible in
      try
        let remaining =
          ref (List.sort Int.compare (Dfg.Expand.duplicated_nodes tree))
        in
        while !remaining <> [] do
          Obs.Counter.incr c_search_rounds;
          match solve_copy () with
          | None -> raise Infeasible
          | Some (ta, _) ->
              let cands = Array.of_list !remaining in
              Obs.Counter.add c_search_candidates (Array.length cands);
              let choice =
                Array.map
                  (fun v ->
                    min_time_choice table (Array.get ta)
                      tree.Dfg.Expand.copies.(v) v)
                  cands
              in
              let scores =
                Par.Pool.map_array pool
                  (fun idx ->
                    let v = cands.(idx) and t = choice.(idx) in
                    let ct = Array.copy times and cc = Array.copy costs in
                    List.iter
                      (fun copy ->
                        pin_flat ~times:ct ~costs:cc ~k ~node:copy ~ftype:t)
                      tree.Dfg.Expand.copies.(v);
                    match
                      Tree_kernel.solve
                        (Tree_kernel.create ?forbid tree.Dfg.Expand.graph
                           ~times:ct ~costs:cc ~k ~deadline)
                    with
                    | None -> None
                    | Some (_, cost) -> Some cost)
                  (Array.init (Array.length cands) Fun.id)
              in
              let best = ref (-1) in
              Array.iteri
                (fun i s ->
                  match (s, !best) with
                  | None, _ -> ()
                  | Some _, -1 -> best := i
                  | Some c, b -> (
                      match scores.(b) with
                      | Some cb when cb <= c -> ()
                      | _ -> best := i))
                scores;
              if !best < 0 then raise Infeasible;
              let v = cands.(!best) and t = choice.(!best) in
              a.(v) <- t;
              List.iter
                (fun copy -> pin_flat ~times ~costs ~k ~node:copy ~ftype:t)
                tree.Dfg.Expand.copies.(v);
              remaining := List.filter (fun u -> u <> v) !remaining
        done;
        match solve_copy () with
        | None -> raise Infeasible
        | Some (ta, _) -> Some (read_back table tree ta a)
      with Infeasible -> None
    end
  end

(* --- Reusable Repeat session (online re-solve) ----------------------- *)

(* A [Repeat] run split into a long-lived session: the expanded tree, the
   fixing order, the placement mask, and the kernel survive across solves,
   so when execution times drift at run time only the perturbed nodes'
   copies (plus previously pinned duplicates) are [Tree_kernel.refresh]ed
   and the DP recomputes just their ancestor chains — no re-expansion, no
   re-allocation, no full first DP. [resolve] replays the exact pin
   sequence of [repeat_with_order ~order:`By_copies], so its result is
   bit-identical to a from-scratch [repeat] on the session's current
   table. *)
module Repeat_session = struct
  type t = {
    tree : Dfg.Expand.tree;
    dups : int list;  (* `By_copies` fixing order *)
    k : int;
    n : int;
    kernel : Tree_kernel.t;
    mutable table : Fulib.Table.t;  (* unpinned table the kernel rows mirror *)
    mutable pinned : bool;  (* a resolve has pinned duplicate copies *)
    mutable cached : Assignment.t option option;  (* None = replay needed *)
  }

  let create ?max_nodes g table ~deadline =
    if deadline < 0 then
      invalid_arg "Repeat_session.create: negative deadline";
    let _, tree = choose_tree ?max_nodes g in
    let dups = order_dups tree `By_copies (Dfg.Expand.duplicated_nodes tree) in
    let forbid = project_forbid g table tree.Dfg.Expand.origin in
    {
      tree;
      dups;
      k = Fulib.Table.num_types table;
      n = Dfg.Graph.num_nodes g;
      kernel = tree_kernel ?forbid tree table ~deadline;
      table;
      pinned = false;
      cached = None;
    }

  let retime t table' =
    if
      Fulib.Table.num_types table' <> t.k
      || Fulib.Table.num_nodes table' <> t.n
    then invalid_arg "Repeat_session.retime: table shape mismatch";
    if Fulib.Table.mem_capacities table' <> Fulib.Table.mem_capacities t.table
    then invalid_arg "Repeat_session.retime: memory capacities changed";
    let ft' = Fulib.Table.flat_times table'
    and fc' = Fulib.Table.flat_costs table' in
    let ft = Fulib.Table.flat_times t.table
    and fc = Fulib.Table.flat_costs t.table in
    let changed v =
      let off = v * t.k in
      let d = ref false in
      for i = 0 to t.k - 1 do
        if ft'.(off + i) <> ft.(off + i) || fc'.(off + i) <> fc.(off + i) then
          d := true
      done;
      !d
    in
    let refresh_copies v =
      Obs.Counter.incr c_session_refreshed;
      let times = Array.sub ft' (v * t.k) t.k
      and costs = Array.sub fc' (v * t.k) t.k in
      List.iter
        (fun c -> Tree_kernel.refresh t.kernel ~node:c ~times ~costs)
        t.tree.Dfg.Expand.copies.(v)
    in
    for v = 0 to t.n - 1 do
      if changed v then refresh_copies v
    done;
    (* Pinned duplicate rows no longer mirror any table: restore them even
       when their table rows did not change, so [resolve] replays the pin
       sequence against clean rows. *)
    if t.pinned then
      List.iter (fun v -> if not (changed v) then refresh_copies v) t.dups;
    t.pinned <- false;
    t.cached <- None;
    t.table <- table'

  let resolve t =
    match t.cached with
    | Some res -> Option.map Array.copy res
    | None ->
        Obs.Counter.incr c_session_resolves;
        let a = Array.make t.n (-1) in
        let exception Infeasible in
        let res =
          try
            if t.n = 0 then Some [||]
            else begin
              if t.dups <> [] then t.pinned <- true;
              List.iter
                (fun v ->
                  match
                    fix_copies t.kernel t.table t.tree.Dfg.Expand.copies.(v) v
                  with
                  | None -> raise Infeasible
                  | Some ty -> a.(v) <- ty)
                t.dups;
              match Tree_kernel.solve t.kernel with
              | None -> raise Infeasible
              | Some (ta, _) -> Some (read_back t.table t.tree ta a)
            end
          with Infeasible -> None
        in
        t.cached <- Some res;
        Option.map Array.copy res
end

(* The original full-re-solve Repeat (a fresh list-based DP over a freshly
   pinned table per duplicated node), kept as the differential-testing and
   benchmarking baseline for the incremental version. *)
let repeat_reference ?max_nodes g table ~deadline =
  let _, tree = choose_tree ?max_nodes g in
  let dups = order_dups tree `By_copies (Dfg.Expand.duplicated_nodes tree) in
  let n = Dfg.Graph.num_nodes g in
  let a = Array.make n (-1) in
  let solve_tree tbl =
    Option.map fst
      (Tree_assign.solve_with_cost_reference tree.Dfg.Expand.graph tbl ~deadline)
  in
  let exception Infeasible in
  try
    let tree_table =
      ref (Fulib.Table.project table ~origin:tree.Dfg.Expand.origin)
    in
    List.iter
      (fun v ->
        match solve_tree !tree_table with
        | None -> raise Infeasible
        | Some ta ->
            let t =
              min_time_choice table (Array.get ta) tree.Dfg.Expand.copies.(v) v
            in
            a.(v) <- t;
            List.iter
              (fun copy ->
                tree_table := Fulib.Table.pin !tree_table ~node:copy ~ftype:t)
              tree.Dfg.Expand.copies.(v))
      dups;
    match solve_tree !tree_table with
    | None -> raise Infeasible
    | Some ta -> Some (read_back table tree ta a)
  with Infeasible -> None
