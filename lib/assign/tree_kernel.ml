let infeasible = max_int

(* Observability: one bump per unit of DP work, so the incremental
   re-solve contract ([pin] dirties only an ancestor chain) is visible in
   [Obs.Counter.snapshot] — kernel.rows counts every DP row computed,
   kernel.dirty_rows only those recomputed because a pin dirtied them. *)
let c_solves = Obs.Counter.make "kernel.solves"
let c_rows = Obs.Counter.make "kernel.rows"
let c_dirty_rows = Obs.Counter.make "kernel.dirty_rows"
let c_pins = Obs.Counter.make "kernel.pins"
let c_refreshes = Obs.Counter.make "kernel.refreshes"
let c_dirty_walk = Obs.Counter.make "kernel.dirty_ancestors"

(* Flat, mutable DP state for [Tree_Assign] over a forest. All matrices are
   single int arrays in row-major [node * (deadline + 1) + budget] layout,
   allocated once at [create] and reused across re-solves. [pin] mutates
   the kernel's own time/cost rows and dirties only the pinned node and its
   ancestor chain, so a re-solve after pinning recomputes O(depth) DP rows
   instead of all n — the incremental heart of [DFG_Assign_Repeat]. *)
type t = {
  g : Dfg.Graph.t;
  n : int;
  k : int;
  deadline : int;
  times : int array;  (* n*k, owned: pin/refresh write here *)
  costs : int array;  (* n*k, owned *)
  forbid : bool array;  (* n*k placement mask, owned; empty = none *)
  forbid0 : bool array;  (* pristine copy of [forbid]: refresh restores from it *)
  parent : int array;  (* -1 for roots; well-defined on a forest *)
  x : int array;  (* n*(deadline+1) subtree costs; [infeasible] = none *)
  choice : int array;  (* n*(deadline+1) chosen type; -1 = none *)
  combined : int array;  (* scratch: children cost sums per budget *)
  row_lo : int array;  (* per node: least feasible budget, deadline+1 if none *)
  dirty : bool array;
  mutable unsolved : bool;  (* no DP rows computed yet *)
  mutable any_dirty : bool;
}

let create ?forbid g ~times ~costs ~k ~deadline =
  if not (Dfg.Graph.is_tree g) then
    invalid_arg "Tree_kernel: DAG portion is not a forest";
  if deadline < 0 then invalid_arg "Tree_kernel: negative deadline";
  let n = Dfg.Graph.num_nodes g in
  if Array.length times <> n * k || Array.length costs <> n * k then
    invalid_arg "Tree_kernel: flat table size mismatch";
  let forbid =
    match forbid with
    | None -> [||]
    | Some f ->
        if Array.length f <> n * k then
          invalid_arg "Tree_kernel: forbid mask size mismatch";
        Array.copy f
  in
  let parent = Array.make n (-1) in
  let pred_off, pred_tgt = Dfg.Graph.csr_preds g in
  for v = 0 to n - 1 do
    if pred_off.(v + 1) > pred_off.(v) then parent.(v) <- pred_tgt.(pred_off.(v))
  done;
  let w = deadline + 1 in
  {
    g;
    n;
    k;
    deadline;
    times;
    costs;
    forbid;
    forbid0 = Array.copy forbid;
    parent;
    x = Array.make (n * w) infeasible;
    choice = Array.make (n * w) (-1);
    combined = Array.make w 0;
    row_lo = Array.make n w;
    dirty = Array.make n false;
    unsolved = true;
    any_dirty = false;
  }

let deadline t = t.deadline

(* One DP row: X_v(j) = min over types of cost(v,t) + sum over children c of
   X_c(j - time(v,t)), matching the reference [Tree_assign.dp] recurrence
   (and its first-minimum tie-breaking) exactly.

   A subtree that fits budget [j] also fits any larger one, so every row
   is infeasible below its [row_lo] and feasible from there on. The
   children's sum is therefore finite exactly from [clo], the largest
   child [row_lo], and the row below [clo] is all [infeasible] / -1
   without any work. Children are summed one whole row at a time and
   types tried one at a time, ascending with a strict [<], so each budget
   still keeps the first type that reaches its minimum. *)
let compute_row t v =
  let w = t.deadline + 1 in
  let base = v * w in
  let succ_off, succ_tgt = Dfg.Graph.csr_succs t.g in
  let lo = succ_off.(v) and hi = succ_off.(v + 1) in
  let clo = ref 0 in
  for i = lo to hi - 1 do
    clo := Int.max !clo t.row_lo.(succ_tgt.(i))
  done;
  let clo = !clo in
  Array.fill t.x base w infeasible;
  Array.fill t.choice base w (-1);
  if clo > t.deadline then t.row_lo.(v) <- w
  else begin
    Array.fill t.combined clo (w - clo) 0;
    for i = lo to hi - 1 do
      let cbase = succ_tgt.(i) * w in
      for j = clo to t.deadline do
        t.combined.(j) <- t.combined.(j) + t.x.(cbase + j)
      done
    done;
    let trow = v * t.k in
    let masked = Array.length t.forbid > 0 in
    let row_lo = ref w in
    for ty = 0 to t.k - 1 do
      if not (masked && t.forbid.(trow + ty)) then begin
        let dt = t.times.(trow + ty) and cost = t.costs.(trow + ty) in
        row_lo := Int.min !row_lo (clo + dt);
        for j = clo + dt to t.deadline do
          let c = t.combined.(j - dt) + cost in
          if c < t.x.(base + j) then begin
            t.x.(base + j) <- c;
            t.choice.(base + j) <- ty
          end
        done
      end
    done;
    t.row_lo.(v) <- !row_lo
  end

let ensure t =
  if t.unsolved then begin
    Array.iter (fun v -> compute_row t v) (Dfg.Graph.post_arr t.g);
    Obs.Counter.add c_rows t.n;
    Array.fill t.dirty 0 t.n false;
    t.unsolved <- false;
    t.any_dirty <- false
  end
  else if t.any_dirty then begin
    let recomputed = ref 0 in
    Array.iter
      (fun v ->
        if t.dirty.(v) then begin
          compute_row t v;
          incr recomputed;
          t.dirty.(v) <- false
        end)
      (Dfg.Graph.post_arr t.g);
    Obs.Counter.add c_rows !recomputed;
    Obs.Counter.add c_dirty_rows !recomputed;
    t.any_dirty <- false
  end

let pin t ~node ~ftype =
  let row = node * t.k in
  let pt = t.times.(row + ftype) and pc = t.costs.(row + ftype) in
  for ty = 0 to t.k - 1 do
    t.times.(row + ty) <- pt;
    t.costs.(row + ty) <- pc
  done;
  (* Every type choice is now equivalent to the pinned (allowed) type, so
     the node's placement mask collapses with the row. *)
  if Array.length t.forbid > 0 then
    for ty = 0 to t.k - 1 do
      t.forbid.(row + ty) <- t.forbid.(row + ftype)
    done;
  (* Dirty the node and its ancestors; the dirty set is closed under
     parents, so an already-dirty node ends the climb. *)
  Obs.Counter.incr c_pins;
  let v = ref node in
  while !v >= 0 && not t.dirty.(!v) do
    t.dirty.(!v) <- true;
    Obs.Counter.incr c_dirty_walk;
    v := t.parent.(!v)
  done;
  t.any_dirty <- true

let refresh t ~node ~times ~costs =
  if Array.length times <> t.k || Array.length costs <> t.k then
    invalid_arg "Tree_kernel.refresh: row width mismatch";
  let row = node * t.k in
  Array.blit times 0 t.times row t.k;
  Array.blit costs 0 t.costs row t.k;
  (* Any earlier [pin] also collapsed the placement mask; restore the
     node's pristine row so all types are selectable again. *)
  if Array.length t.forbid > 0 then
    Array.blit t.forbid0 row t.forbid row t.k;
  Obs.Counter.incr c_refreshes;
  let v = ref node in
  while !v >= 0 && not t.dirty.(!v) do
    t.dirty.(!v) <- true;
    Obs.Counter.incr c_dirty_walk;
    v := t.parent.(!v)
  done;
  t.any_dirty <- true

let solve t =
  Obs.Counter.incr c_solves;
  ensure t;
  let w = t.deadline + 1 in
  let roots = Dfg.Graph.roots_arr t.g in
  if
    Array.exists (fun r -> t.x.((r * w) + t.deadline) = infeasible) roots
  then None
  else begin
    let a = Array.make t.n 0 in
    (* Explicit stack: trees from [Dfg.Expand] can be very deep. *)
    let stack = Array.make t.n 0 and budget = Array.make t.n 0 in
    let sp = ref 0 in
    Array.iter
      (fun r ->
        stack.(!sp) <- r;
        budget.(!sp) <- t.deadline;
        incr sp)
      roots;
    while !sp > 0 do
      decr sp;
      let v = stack.(!sp) and b = budget.(!sp) in
      let ty = t.choice.((v * w) + b) in
      a.(v) <- ty;
      let remaining = b - t.times.((v * t.k) + ty) in
      Dfg.Graph.iter_dag_succs t.g v (fun c ->
          stack.(!sp) <- c;
          budget.(!sp) <- remaining;
          incr sp)
    done;
    let total =
      Array.fold_left (fun acc r -> acc + t.x.((r * w) + t.deadline)) 0 roots
    in
    Some (a, total)
  end

let feasible t =
  Obs.Counter.incr c_solves;
  ensure t;
  let w = t.deadline + 1 in
  Array.for_all
    (fun r -> t.x.((r * w) + t.deadline) <> infeasible)
    (Dfg.Graph.roots_arr t.g)

(* [solve]'s backtrack restricted to one root path: climb to the root,
   then hand the budget down the path. O(depth) and no O(n) arrays. *)
let type_at t ~node =
  ensure t;
  let w = t.deadline + 1 in
  let rec up v path = if v < 0 then path else up t.parent.(v) (v :: path) in
  let rec down b = function
    | [] -> assert false
    | v :: rest ->
        let ty = t.choice.((v * w) + b) in
        if ty < 0 then invalid_arg "Tree_kernel.type_at: infeasible";
        if rest = [] then ty else down (b - t.times.((v * t.k) + ty)) rest
  in
  down t.deadline (up node [])

let dp_row t ~node =
  ensure t;
  let w = t.deadline + 1 in
  Array.sub t.x (node * w) w
