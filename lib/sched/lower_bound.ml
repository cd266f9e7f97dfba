(* Every node adds a ramp [clamp (s - r) 0 b] to its type's forced work at
   prefix (or suffix) length [s]: zero up to the ramp start [r], then one
   more busy step per step until all [b] busy steps are in. Ramps are
   summed per type with slope-difference arrays — [base] holds the sum at
   [s = 1], [slope] the +1/-1 slope changes for [s >= 2] — so the bound
   costs O(n + k·deadline) instead of O(n·deadline), in exact integers. *)
let add_ramp ~base ~slope ~stride ~deadline t r b =
  base.(t) <- base.(t) + Int.max 0 (Int.min b (1 - r));
  let lo = Int.max 2 (r + 1) and hi = Int.min deadline (r + b) in
  if lo <= hi then begin
    let row = t * stride in
    slope.(row + lo) <- slope.(row + lo) + 1;
    slope.(row + hi + 1) <- slope.(row + hi + 1) - 1
  end

let per_type ?(pipelined = fun _ -> false) ?frames g table a ~deadline =
  let frames =
    match frames with
    | Some f -> Some f
    | None -> Asap_alap.frames g table a ~deadline
  in
  match frames with
  | None -> None
  | Some (asap, alap) ->
      let n = Dfg.Graph.num_nodes g in
      let k = Fulib.Table.num_types table in
      let times = Fulib.Table.flat_times table in
      (* busy steps an operation forces onto an instance: the issue slot
         only, for pipelined types *)
      let busy v = if pipelined a.(v) then 1 else times.((v * k) + a.(v)) in
      (* prefix: busy steps of a type forced into steps 0 .. s-1 by ALAP
         starts; suffix: the mirror for the last s steps by ASAP starts *)
      let stride = deadline + 2 in
      let pre_base = Array.make k 0 and pre_slope = Array.make (k * stride) 0 in
      let suf_base = Array.make k 0 and suf_slope = Array.make (k * stride) 0 in
      for v = 0 to n - 1 do
        let t = a.(v) and b = busy v in
        add_ramp ~base:pre_base ~slope:pre_slope ~stride ~deadline t alap.(v) b;
        add_ramp ~base:suf_base ~slope:suf_slope ~stride ~deadline t
          (deadline - asap.(v) - b) b
      done;
      let bound = Array.make k 0 in
      for t = 0 to k - 1 do
        let row = t * stride in
        let pre = ref pre_base.(t) and suf = ref suf_base.(t) in
        let dpre = ref 0 and dsuf = ref 0 in
        for s = 1 to deadline do
          if s > 1 then begin
            dpre := !dpre + pre_slope.(row + s);
            dsuf := !dsuf + suf_slope.(row + s);
            pre := !pre + !dpre;
            suf := !suf + !dsuf
          end;
          let need w = (w + s - 1) / s in
          bound.(t) <- Int.max bound.(t) (Int.max (need !pre) (need !suf))
        done
      done;
      (* A type that appears at all needs at least one instance even when
         deadline slack makes the density bounds vanish. *)
      Array.iter (fun t -> if bound.(t) = 0 then bound.(t) <- 1) a;
      Some bound
