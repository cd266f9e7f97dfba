(* The traced run: a workload's serial-phase stream replayed in this
   process, one request at a time and in the daemon's order, through the
   same public calls the daemon makes, with a span around each call.

   Every pass runs on a fresh cache and a fresh admission controller.
   The plain pass is the daemon's own path (Jsonl.line_of_string,
   Server.try_submit + Server.drain on a one-domain pool, the Jsonl
   printers). The step-by-step passes split Server.drain, Cache.solve and
   Core.Synthesis.solve into their public steps and wrap each in a span;
   [mismatches] counts their responses that differ from the plain pass's,
   which means this copy of the pipeline has gone stale. An
   untraced and a traced one take turns, chunk by chunk, and the time
   between the two is the tracing overhead. Spans (name, start, stop,
   parent, request id) stay in memory and are written out at the end. *)

module S = Core.Synthesis
module J = Obs.Json

(* --- spans ------------------------------------------------------------- *)

let names =
  [|
    "request";
    "wire.parse";
    "wire.lookup";
    "server.preheat";
    "cache.digest";
    "cache.probe";
    "cache.store";
    "synth.solve";
    "synth.assign";
    "synth.schedule";
    "synth.reclaim";
    "synth.rtl";
    "synth.check";
    "rt.admit";
    "wire.serialize";
  |]

let layer name =
  let rec find i = if names.(i) = name then i else find (i + 1) in
  find 0

let l_request = layer "request"
let l_parse = layer "wire.parse"
let l_lookup = layer "wire.lookup"
let l_preheat = layer "server.preheat"
let l_digest = layer "cache.digest"
let l_probe = layer "cache.probe"
let l_store = layer "cache.store"
let l_solve = layer "synth.solve"
let l_assign = layer "synth.assign"
let l_schedule = layer "synth.schedule"
let l_reclaim = layer "synth.reclaim"
let l_rtl = layer "synth.rtl"
let l_check = layer "synth.check"
let l_admit = layer "rt.admit"
let l_serialize = layer "wire.serialize"

type spans = {
  name : int Stats.vec;
  start : int Stats.vec;
  stop : int Stats.vec;
  parent : int Stats.vec;
  req : int Stats.vec;
  mutable current : int;  (* the open span new spans nest under, or -1 *)
  mutable req_id : int;
}

let fresh_spans () =
  {
    name = Stats.vec 0;
    start = Stats.vec 0;
    stop = Stats.vec 0;
    parent = Stats.vec 0;
    req = Stats.vec 0;
    current = -1;
    req_id = 0;
  }

let spans = ref (fresh_spans ())

(* Off for the untraced twin of the traced pass: same calls, no spans. *)
let tracing = ref false

let span layer f =
  if not !tracing then f ()
  else begin
    let s = !spans in
    let i = s.name.Stats.len in
    Stats.push s.name layer;
    Stats.push s.parent s.current;
    Stats.push s.req s.req_id;
    Stats.push s.stop 0;
    s.current <- i;
    Stats.push s.start (Stats.now_ns ());
    let close () =
      s.stop.Stats.data.(i) <- Stats.now_ns ();
      s.current <- s.parent.Stats.data.(i)
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Inclusive and self nanoseconds per layer: a span's self time is its
   duration minus its children's. *)
let totals s =
  let inclusive = Array.make (Array.length names) 0 in
  let self = Array.make (Array.length names) 0 in
  for i = 0 to s.name.Stats.len - 1 do
    let d = s.stop.Stats.data.(i) - s.start.Stats.data.(i) in
    let l = s.name.Stats.data.(i) in
    inclusive.(l) <- inclusive.(l) + d;
    self.(l) <- self.(l) + d;
    let p = s.parent.Stats.data.(i) in
    if p >= 0 then
      let pl = s.name.Stats.data.(p) in
      self.(pl) <- self.(pl) - d
  done;
  (inclusive, self)

let write_spans s path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "span\tname\tstart_ns\tstop_ns\tparent\trequest\n";
      for i = 0 to s.name.Stats.len - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i
          names.(s.name.Stats.data.(i))
          s.start.Stats.data.(i) s.stop.Stats.data.(i)
          s.parent.Stats.data.(i) s.req.Stats.data.(i)
      done)

(* --- Core.Synthesis.solve, step by step --------------------------------- *)

(* The pipeline of Core.Synthesis.solve for requests without a budget,
   written out over the public calls it makes so each phase gets its own
   span; the traced pass checks its responses against the real solve's. *)

let base_stats (req : S.request) = [ ("nodes", Dfg.Graph.num_nodes req.graph) ]

let result_stats ?dvfs (req : S.request) (r : S.result) =
  let base =
    [
      ("nodes", Dfg.Graph.num_nodes req.graph);
      ("cost", r.cost);
      ("makespan", r.makespan);
      ("config_total", Sched.Config.total r.config);
      ("lower_bound_total", Sched.Config.total r.lower_bound);
    ]
  in
  let base =
    if Dfg.Graph.has_data_sizes req.graph then
      base
      @ [ ("transfer_cost", Assign.Assignment.transfer_cost req.graph r.assignment) ]
    else base
  in
  match dvfs with
  | None -> base
  | Some (d : S.dvfs) ->
      base
      @ [
          ("levels", Fulib.Dvfs.num_expanded d.mapping);
          ("energy", d.energy_after);
          ("energy_saved", d.energy_before - d.energy_after);
          ("reclaim_moves", d.reclaim_moves);
        ]

let audit (req : S.request) table ?dvfs (r : S.result) =
  let g = req.graph and deadline = req.deadline in
  let base =
    [
      Check.Assignment.check ~expect_cost:r.cost g table r.assignment ~deadline;
      Check.Schedule.check ~assignment:r.assignment ~config:r.config g table
        r.schedule ~deadline;
      Check.Config.check table r.schedule ~config:r.config;
    ]
  in
  let base =
    if Assign.Assignment.mem_constrained g table then
      base @ [ Check.Memory.check g table r.schedule (Sched.Binding.bind table r.schedule) ]
    else base
  in
  match dvfs with
  | None -> base
  | Some (d : S.dvfs) ->
      base
      @ [
          Check.Energy.check ~base:req.table ~mapping:d.mapping table
            r.assignment ~expect_energy:r.cost;
        ]

let schedule (req : S.request) table assignment =
  match
    Sched.Asap_alap.frames req.graph table assignment ~deadline:req.deadline
  with
  | None -> None
  | Some frames -> (
      match req.scheduler with
      | S.List_scheduling ->
          Sched.Min_resource.run ~frames req.graph table assignment
            ~deadline:req.deadline
      | S.Force_directed ->
          Sched.Force_directed.run ~frames req.graph table assignment
            ~deadline:req.deadline)

let reclaim (req : S.request) (r0 : S.result) etable mapping =
  let rc =
    Sched.Reclaim.run req.graph etable ~mapping ~config:r0.config
      ~deadline:req.deadline r0.schedule
  in
  let a' = rc.Sched.Reclaim.schedule.Sched.Schedule.assignment in
  let config =
    if rc.moves = 0 then r0.config
    else Sched.Schedule.peak_usage etable rc.schedule
  in
  ( {
      r0 with
      assignment = a';
      schedule = rc.schedule;
      config;
      cost = rc.energy_after;
      makespan = Assign.Assignment.makespan req.graph etable a';
    },
    {
      S.expanded = etable;
      mapping;
      energy_before = rc.energy_before;
      energy_after = rc.energy_after;
      reclaim_moves = rc.moves;
    } )

let rtl_stats = function
  | None -> []
  | Some (resp : Rtl.Backend.response) ->
      let st = resp.stats in
      [
        ("rtl_fu_instances", st.Rtl.Netlist_ir.fu_instances);
        ("rtl_registers", st.registers);
        ("rtl_mux_count", st.mux_count);
        ("rtl_mux_inputs", st.mux_inputs);
        ("rtl_wires", st.wires);
        ("rtl_unsupported", st.unsupported_ops);
      ]

let solve_steps (req : S.request) =
  let finish status ?result ?(violations = []) ?dvfs ?rtl stats =
    { S.result; status; violations; stats; dvfs; rtl }
  in
  let expansion =
    Option.map
      (fun levels ->
        span l_reclaim (fun () -> Fulib.Dvfs.expand req.table ~levels))
      req.levels
  in
  let table = match expansion with None -> req.table | Some (t, _) -> t in
  match
    span l_assign (fun () ->
        Assign.Solve.run req.algorithm req.graph table ~deadline:req.deadline)
  with
  | Assign.Solve.Infeasible -> finish S.Infeasible (base_stats req)
  | Assign.Solve.Infeasible_memory -> finish S.Infeasible_memory (base_stats req)
  | Assign.Solve.Feasible assignment -> (
      match span l_schedule (fun () -> schedule req table assignment) with
      | None -> finish S.Infeasible (base_stats req)
      | Some { Sched.Min_resource.schedule; config; lower_bound } -> (
          let r0 =
            {
              S.algorithm = req.algorithm;
              assignment;
              cost = Assign.Assignment.total_cost table assignment;
              makespan = Assign.Assignment.makespan req.graph table assignment;
              schedule;
              config;
              lower_bound;
            }
          in
          let r, dvfs =
            match expansion with
            | None -> (r0, None)
            | Some (etable, mapping)
              when Assign.Assignment.mem_constrained req.graph etable ->
                ( r0,
                  Some
                    {
                      S.expanded = etable;
                      mapping;
                      energy_before = r0.cost;
                      energy_after = r0.cost;
                      reclaim_moves = 0;
                    } )
            | Some (etable, mapping) ->
                let r, d =
                  span l_reclaim (fun () -> reclaim req r0 etable mapping)
                in
                (r, Some d)
          in
          let rtl =
            if req.rtl then
              Some
                (span l_rtl (fun () ->
                     Rtl.Backend.lower
                       (Rtl.Backend.request req.graph table r.schedule)))
            else None
          in
          let stats = result_stats ?dvfs req r @ rtl_stats rtl in
          if not (req.validate || Check.Env.enabled ()) then
            finish S.Ok ~result:r ?dvfs ?rtl stats
          else
            let reports = span l_check (fun () -> audit req table ?dvfs r) in
            let violations =
              List.concat_map (fun rep -> rep.Check.Violation.violations) reports
            in
            let checked =
              List.fold_left (fun acc rep -> acc + rep.Check.Violation.checked) 0
                reports
            in
            let stats =
              stats
              @ [ ("checked", checked); ("violations", List.length violations) ]
            in
            match violations with
            | [] -> finish S.Ok ~result:r ?dvfs ?rtl stats
            | first :: _ ->
                finish
                  (S.Error
                     (Printf.sprintf
                        "validation failed: %d violation(s), first %s"
                        (List.length violations) first.Check.Violation.code))
                  ~result:r ~violations ?dvfs ?rtl stats))

let solve req =
  span l_solve (fun () ->
      try solve_steps req
      with e ->
        {
          S.result = None;
          status = S.Error (Printexc.to_string e);
          violations = [];
          stats = base_stats req;
          dvfs = None;
          rtl = None;
        })

(* Serve.Cache.solve, step by step *)
let cached_solve cache ~hits ~misses req =
  let key = span l_digest (fun () -> Serve.Cache.digest req) in
  match span l_probe (fun () -> Serve.Cache.find_digest cache key) with
  | Some resp ->
      incr hits;
      resp
  | None ->
      incr misses;
      let resp = solve req in
      span l_store (fun () -> Serve.Cache.store_digest cache key resp);
      resp

(* --- the two passes ---------------------------------------------------- *)

let traced_lookup name ~seed =
  span l_lookup (fun () -> Gen.serve_lookup name ~seed)

let verdict adm (a : S.periodic) ~task resp =
  match S.periodic_of_response a resp with
  | Ok an -> Rt.Admission.try_admit adm ~id:task an
  | Error reason -> Rt.Verdict.Rejected reason

let evictions () =
  Option.value (Obs.Counter.value_of "serve.cache.evict") ~default:0

(* The daemon's path, line by line, until [budget_ns] has passed. *)
let plain_pass ~budget_ns ~cache lines =
  let pool = Par.Pool.create ~domains:1 () in
  let server = Serve.Server.create ~pool ~cache () in
  let adm = Rt.Admission.create () in
  let out = Stats.vec "" in
  let t0 = Stats.now_ns () in
  while out.Stats.len < Array.length lines && Stats.now_ns () - t0 < budget_ns do
    Stats.push out
      (match
         Serve.Jsonl.line_of_string ~lookup:Gen.serve_lookup ~line:1
           lines.(out.Stats.len)
       with
      | Ok (Serve.Jsonl.Solve item) -> (
          ignore (Serve.Server.try_submit server item.request);
          match Serve.Server.drain server with
          | [ resp ] -> Serve.Jsonl.response_to_string ~id:item.id resp
          | _ -> "drain returned the wrong number of responses")
      | Ok (Serve.Jsonl.Admit a) ->
          let resp = Serve.Server.guarded_solve server a.periodic.request in
          Serve.Jsonl.verdict_to_string ~id:a.id ~task:a.task
            (verdict adm a.periodic ~task:a.task resp)
      | Ok (Serve.Jsonl.Release r) ->
          let known = Rt.Admission.release adm ~id:r.task in
          Serve.Jsonl.released_to_string ~id:r.id ~task:r.task ~known
      | Error msg -> Serve.Jsonl.error_to_string ~id:(J.Int 0) msg)
  done;
  Par.Pool.shutdown pool;
  Stats.to_array out

(* A step-by-step replay with its own cache and admission controller. *)
type replayer = {
  cache : Serve.Cache.t;
  adm : Rt.Admission.t;
  hits : int ref;
  misses : int ref;
  mutable bytes : int;
  mutable evicted : int;
  mutable wall_ns : int;
  out : string Stats.vec;
}

let replayer cache =
  {
    cache;
    adm = Rt.Admission.create ();
    hits = ref 0;
    misses = ref 0;
    bytes = 0;
    evicted = 0;
    wall_ns = 0;
    out = Stats.vec "";
  }

let step r line =
  let serialize f =
    let s = span l_serialize f in
    r.bytes <- r.bytes + String.length s + 1;
    s
  in
  let cached_solve = cached_solve r.cache ~hits:r.hits ~misses:r.misses in
  span l_request (fun () ->
      match
        span l_parse (fun () ->
            Serve.Jsonl.line_of_string ~lookup:traced_lookup ~line:1 line)
      with
      | Ok (Serve.Jsonl.Solve item) ->
          let req = item.request in
          span l_preheat (fun () ->
              Dfg.Graph.preheat req.graph;
              Fulib.Table.preheat req.table);
          let resp = cached_solve req in
          serialize (fun () -> Serve.Jsonl.response_to_string ~id:item.id resp)
      | Ok (Serve.Jsonl.Admit a) ->
          let resp = cached_solve a.periodic.request in
          let v =
            span l_admit (fun () -> verdict r.adm a.periodic ~task:a.task resp)
          in
          serialize (fun () ->
              Serve.Jsonl.verdict_to_string ~id:a.id ~task:a.task v)
      | Ok (Serve.Jsonl.Release rel) ->
          let known =
            span l_admit (fun () -> Rt.Admission.release r.adm ~id:rel.task)
          in
          serialize (fun () ->
              Serve.Jsonl.released_to_string ~id:rel.id ~task:rel.task ~known)
      | Error msg -> Serve.Jsonl.error_to_string ~id:(J.Int 0) msg)

(* Lines [lo, hi) through [r], with spans iff [trace]. *)
let run_chunk r ~trace ~ids lines lo hi =
  tracing := trace;
  let evicted = evictions () in
  let t0 = Stats.now_ns () in
  for k = lo to hi - 1 do
    !spans.req_id <- ids.(k);
    Stats.push r.out (step r lines.(k))
  done;
  r.wall_ns <- r.wall_ns + (Stats.now_ns () - t0);
  r.evicted <- r.evicted + (evictions () - evicted);
  tracing := false

(* --- cache state at the start of the serial phase ---------------------- *)

(* The cache entries (digest, response) of solve lines, solved here. *)
let entries (reqs : Gen.request list) =
  List.map
    (fun (r : Gen.request) ->
      match Serve.Jsonl.line_of_string ~lookup:Gen.serve_lookup ~line:1 r.line with
      | Ok (Serve.Jsonl.Solve item) ->
          (Serve.Cache.digest item.request, S.solve item.request)
      | _ -> failwith "expected a solve line")
    reqs

let fresh_cache () =
  Serve.Cache.create ~entries:Serve.Cache.default_entries
    ~shards:Serve.Cache.default_shards ()

(* The daemon's cache when its serial phase starts: [filler] (for cold
   and mixed, whose serial phase fills the cache within its first few
   hundred requests: a cache's worth of older, distinct cold responses,
   so stores evict and the heap holds what the daemon's does), then the
   warm-up batch on top. Both are (digest, response) lists. *)
let prepare ~filler ~warm cache =
  List.iter (fun (key, resp) -> Serve.Cache.store_digest cache key resp) filler;
  List.iter (fun (key, resp) -> Serve.Cache.store_digest cache key resp) warm;
  cache

(* --- server.pool_speedup ----------------------------------------------- *)

(* The sequential twin: a Server.guarded_solve loop on one domain against
   Server.drain on [domains], over the same 32-request waves, each pass
   on a fresh cache and freshly parsed requests; the median of three
   alternating rounds each. *)
let pool_speedup ~domains ~lines =
  let requests () =
    Array.of_list
      (List.filter_map
         (fun line ->
           match
             Serve.Jsonl.line_of_string ~lookup:Gen.serve_lookup ~line:1 line
           with
           | Ok (Serve.Jsonl.Solve item) -> Some item.request
           | _ -> None)
         (Array.to_list lines))
  in
  let par = Par.Pool.create ~domains () in
  let seq = Par.Pool.create ~domains:1 () in
  let time pool parallel =
    let reqs = requests () in
    let server =
      Serve.Server.create ~pool ~cache:(fresh_cache ()) ~queue_capacity:32 ()
    in
    let t0 = Stats.now_ns () in
    if parallel then
      Array.iteri
        (fun i r ->
          Serve.Server.submit server r;
          if (i + 1) mod 32 = 0 || i = Array.length reqs - 1 then
            ignore (Serve.Server.drain server))
        reqs
    else Array.iter (fun r -> ignore (Serve.Server.guarded_solve server r)) reqs;
    float_of_int (Stats.now_ns () - t0)
  in
  let rounds = List.init 3 (fun _ -> (time seq false, time par true)) in
  Par.Pool.shutdown par;
  Par.Pool.shutdown seq;
  Stats.median (Array.of_list (List.map fst rounds))
  /. Stats.median (Array.of_list (List.map snd rounds))

(* --- the traced run ---------------------------------------------------- *)

type result = {
  replayed : int;
  mismatches : int;  (* step-by-step lines that differ from the plain pass *)
  layers : (string * float * string) list;  (* name, value per request, unit *)
  layer_sum_us : float;  (* the self times, summed: what the layers explain *)
  overhead_pct : float;
  pool_speedup : float;
}

(* Lines replayed back to back by each replayer before the other takes
   its turn: short enough that both see the same host conditions. *)
let chunk = 16

(* [run ?spans_path ~domains ~filler ~warm ~lines ~ids ~budget_ns ()]:
   [filler] and [warm] set up each replay's cache (see [prepare]);
   [lines] and [ids] are the serial phase's lines in send order. The
   plain pass stops after [budget_ns]. An untraced and a traced
   step-by-step replay then take turns over the lines it reached, chunk
   by chunk, and both must answer as it did; the time between them is
   the tracing overhead. The spans go to [spans_path] when given. *)
let run ?spans_path ~domains ~filler ~warm ~lines ~ids ~budget_ns () =
  let cache () = prepare ~filler ~warm (fresh_cache ()) in
  let plain = plain_pass ~budget_ns ~cache:(cache ()) lines in
  let n = Array.length plain in
  spans := fresh_spans ();
  let untraced = replayer (cache ()) and traced = replayer (cache ()) in
  let rec go lo =
    if lo < n then begin
      let hi = min n (lo + chunk) in
      let turn r trace = run_chunk r ~trace ~ids lines lo hi in
      (* alternate who goes first, so neither always finds the chunk's
         code warm *)
      if lo / chunk mod 2 = 0 then (turn untraced false; turn traced true)
      else (turn traced true; turn untraced false);
      go hi
    end
  in
  go 0;
  let differ r =
    let out = Stats.to_array r.out in
    Array.fold_left ( + ) 0
      (Array.mapi (fun k line -> if line = plain.(k) then 0 else 1) out)
  in
  let mismatches = differ untraced + differ traced in
  Option.iter (write_spans !spans) spans_path;
  let inclusive, self = totals !spans in
  let replayed = n in
  let n = float_of_int n in
  let us ns = float_of_int ns /. n /. 1000.0 in
  let self_us name = us self.(layer name) in
  let layer_sum_us =
    Array.fold_left ( +. ) 0.0
      (Array.mapi (fun l ns -> if l = l_request then 0.0 else us ns) self)
  in
  let probes = !(traced.hits) + !(traced.misses) in
  {
    replayed;
    mismatches;
    layers =
      [
        ("wire.lookup_us", self_us "wire.lookup", "us");
        ("wire.parse_us", self_us "wire.parse", "us");
        ("wire.serialize_us", self_us "wire.serialize", "us");
        ("wire.response_bytes", float_of_int traced.bytes /. n, "bytes");
        ("server.preheat_us", self_us "server.preheat", "us");
        ("cache.digest_us", self_us "cache.digest", "us");
        ("cache.probe_us", self_us "cache.probe", "us");
        ("cache.store_us", self_us "cache.store", "us");
        ( "cache.evict_per_kreq",
          float_of_int traced.evicted /. n *. 1000.0,
          "1/kreq" );
        ( "cache.hit_ratio",
          (if probes = 0 then 0.0
           else float_of_int !(traced.hits) /. float_of_int probes),
          "ratio" );
        ("synth.solve_us", us inclusive.(l_solve), "us");
        ("synth.assign_us", self_us "synth.assign", "us");
        ("synth.schedule_us", self_us "synth.schedule", "us");
        ("synth.reclaim_us", self_us "synth.reclaim", "us");
        ("synth.rtl_us", self_us "synth.rtl", "us");
        ("synth.check_us", self_us "synth.check", "us");
        ("synth.glue_us", self_us "synth.solve", "us");
        ("rt.admit_us", self_us "rt.admit", "us");
      ];
    layer_sum_us;
    overhead_pct =
      float_of_int (traced.wall_ns - untraced.wall_ns)
      /. float_of_int untraced.wall_ns *. 100.0;
    pool_speedup =
      pool_speedup ~domains ~lines:(Array.sub lines 0 (min 256 replayed));
  }
