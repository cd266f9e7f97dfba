type tree = {
  graph : Graph.t;
  origin : int array;
  copies : int list array;
}

exception Too_large of int

let default_max_nodes = 200_000

(* A node's copy in the expansion roots one copy of every zero-delay
   out-edge's subtree, so the subtree below [v] has
   [1 + sum over out-edges (v, w) of size w] nodes; the transposed
   expansion is the mirror over in-edges. One sweep each (post order,
   then topological order), saturating at [max_nodes + 1] so exponential
   counts cannot overflow. *)
let sizes ?(max_nodes = default_max_nodes) g =
  let cap = if max_nodes = max_int then max_int else max_nodes + 1 in
  let add a b = if a >= cap - b then cap else a + b in
  let n = Graph.num_nodes g in
  let total sizes off tgt order roots =
    Array.iter
      (fun v ->
        for i = off.(v) to off.(v + 1) - 1 do
          sizes.(v) <- add sizes.(v) sizes.(tgt.(i))
        done)
      order;
    Array.fold_left (fun acc r -> add acc sizes.(r)) 0 roots
  in
  let succ_off, succ_tgt = Graph.csr_succs g in
  let pred_off, pred_tgt = Graph.csr_preds g in
  ( total (Array.make n 1) succ_off succ_tgt (Graph.post_arr g)
      (Graph.roots_arr g),
    total (Array.make n 1) pred_off pred_tgt (Graph.topo_arr g)
      (Graph.leaves_arr g) )

let expand ?(max_nodes = default_max_nodes) g =
  let next_id = ref 0 in
  let rev_names = ref [] and rev_ops = ref [] and rev_origin = ref [] in
  let edges = ref [] in
  let fresh_copy v =
    let id = !next_id in
    if id >= max_nodes then raise (Too_large max_nodes);
    incr next_id;
    rev_names := Graph.name g v :: !rev_names;
    rev_ops := Graph.op g v :: !rev_ops;
    rev_origin := v :: !rev_origin;
    id
  in
  (* Clone the subtree of zero-delay descendants reachable from [v]. The DAG
     portion is acyclic so this terminates; each call produces a fresh copy
     of the whole sub-DAG unfolded into a tree. *)
  let rec clone v =
    let id = fresh_copy v in
    Graph.iter_dag_succs_sized g v (fun w size ->
        let child = clone w in
        edges := { Graph.src = id; dst = child; delay = 0; size } :: !edges);
    id
  in
  Array.iter (fun r -> ignore (clone r)) (Graph.roots_arr g);
  let names = Array.of_list (List.rev !rev_names) in
  let ops = Array.of_list (List.rev !rev_ops) in
  let origin = Array.of_list (List.rev !rev_origin) in
  let graph = Graph.of_edges ~names ~ops (List.rev !edges) in
  let copies = Array.make (Graph.num_nodes g) [] in
  for t = Array.length origin - 1 downto 0 do
    copies.(origin.(t)) <- t :: copies.(origin.(t))
  done;
  { graph; origin; copies }

let copy_count t v = List.length t.copies.(v)

let duplicated_nodes t =
  let rec collect v acc =
    if v < 0 then acc
    else collect (v - 1) (if copy_count t v > 1 then v :: acc else acc)
  in
  collect (Array.length t.copies - 1) []
