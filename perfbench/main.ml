(* The daemon benchmark's command.

     main.exe --workload hot|cold|mixed --seed N --seconds S --trace 0|1
              [--daemon PATH]

   Starts the real daemon ([hetsched daemon --socket - --domains N], N
   one less than the CPUs this process may use, so the driver keeps a
   core of its own, capped at the runtime's recommended domain count and
   at least 1; default cache and queue) as a child process and drives it
   over its stdio pipes from this single thread:

   1. set-up: spawn the daemon under test and answer its 32-line warm-up
      batch, then run one unmeasured round, so the daemon's cache and heap
      reach the sizes they keep for the rest of the run;
   2. [rounds] rounds, each a set-up of a second, throwaway daemon (the
      setup_s sample), a serial slice (one request in flight, 40% of the
      round) and a pipelined slice (32 in flight, the other 60%). Each
      round yields one sample of every end-to-end metric, the host's
      steal time and the host's speed over the round. A run reports the
      median of each metric over its rounds, scaled to a reference host
      speed (see [reference_probe_ms]), so a burst of interference from
      other tenants of the host moves a few rounds and not the result.

   Every response then goes through the correctness gate. With
   [--trace 0] the last stdout line carries the end-to-end metrics; with
   [--trace 1] it carries the per-layer ones of a traced in-process
   replay of serial lines from the least-stolen rounds (see Replay). *)

open Perfbench

let rounds = 30
let quiet_rounds = 6
let serial_share = 0.4
let pipe_depth = 32

let usage () =
  prerr_endline
    "usage: main.exe --workload hot|cold|mixed --seed N --seconds S --trace \
     0|1 [--daemon PATH]";
  exit 2

(* Everything one phase sent and got back, over all rounds. *)
type phase = {
  base : int;
  next : unit -> Gen.request option;
  mutable sent : int;
  mutable responses : (int * string) list;
  mutable strays : string list;
  latency_ms : (int, float) Hashtbl.t;  (* by id *)
}

let new_phase ~base next =
  {
    base;
    next;
    sent = 0;
    responses = [];
    strays = [];
    latency_ms = Hashtbl.create 4096;
  }

(* [rt_order] collects the ids of admit/release lines in send order. *)
let stream ~seed workload ~rt_order base =
  let i = ref base in
  fun () ->
    let r = Gen.request ~seed workload !i in
    incr i;
    (match r.kind with
    | Gen.Admit _ | Gen.Release _ -> rt_order := r.id :: !rt_order
    | Gen.Hot_entry _ | Gen.Cold_entry -> ());
    Some r

(* Drive [d] with [depth] in flight until [until]; returns the latencies
   of this slice, in milliseconds. *)
let run_slice d ph ~depth ~until =
  let slice = Stats.vec 0.0 in
  ignore
    (Client.pump d ~depth ~until
       ~next:(fun () ->
         Option.map
           (fun (r : Gen.request) ->
             ph.sent <- ph.sent + 1;
             (r.id, r.line))
           (ph.next ()))
       ~on_response:(fun ~id ~line ~latency_ns ->
         let ms = float_of_int latency_ns /. 1e6 in
         ph.responses <- (id, line) :: ph.responses;
         Hashtbl.replace ph.latency_ms id ms;
         Stats.push slice ms)
       ~on_stray:(fun line -> ph.strays <- line :: ph.strays));
  Stats.to_array slice

let print_metric (name, value, unit) =
  Printf.printf "%-22s %14.6g %s\n" name value unit

let json_result ~correct ~attempted ~failed metrics =
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit) ->
            Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} name value
              unit)
          metrics))

(* One round's sample of each end-to-end metric. *)
type round = {
  serial_p50 : float;
  serial_p90 : float;
  serial_p99 : float;
  req_per_s : float;
  pipe_p50 : float;
  pipe_p90 : float;
  pipe_p99 : float;
  cpu_us : float;  (* daemon CPU per pipelined request *)
  driver_us : float;  (* driver CPU per pipelined request *)
  setup_s : float;  (* spawn to warm, of a fresh daemon *)
  steal_pct : float;  (* host CPU time stolen during the round, % *)
  probe_ms : float;  (* the host's speed over the round, see [probe_ms] *)
  serial_ids : int * int;  (* the serial slice sent ids [lo, hi) *)
}

let cpu_s (t : Unix.process_times) = t.tms_utime +. t.tms_stime

(* The fastest of three runs of [Stats.probe_ns], in milliseconds. *)
let probe_ms () =
  float_of_int
    (min (Stats.probe_ns ()) (min (Stats.probe_ns ()) (Stats.probe_ns ())))
  /. 1e6

let run_round ~setup ~host_cpus d ~serial ~pipe ~round_ns =
  let steal0 = Client.steal_ticks () and start = Stats.now_ns () in
  let setup_s = setup () in
  let probe0 = probe_ms () in
  let serial_ns = int_of_float (serial_share *. float_of_int round_ns) in
  let serial_lo = serial.base + serial.sent in
  let s =
    run_slice d serial ~depth:1 ~until:(Stats.now_ns () + serial_ns)
  in
  let ticks0 = Client.cpu_ticks d.Client.pid and driver0 = Unix.times () in
  let t0 = Stats.now_ns () in
  let p =
    run_slice d pipe ~depth:pipe_depth ~until:(t0 + round_ns - serial_ns)
  in
  let elapsed_s = float_of_int (Stats.now_ns () - t0) /. 1e9 in
  let ticks1 = Client.cpu_ticks d.Client.pid and driver1 = Unix.times () in
  let n = float_of_int (Array.length p) in
  let probe1 = probe_ms () in
  {
    serial_p50 = Stats.quantile s 0.5;
    serial_p90 = Stats.quantile s 0.9;
    serial_p99 = Stats.quantile s 0.99;
    req_per_s = n /. elapsed_s;
    pipe_p50 = Stats.quantile p 0.5;
    pipe_p90 = Stats.quantile p 0.9;
    pipe_p99 = Stats.quantile p 0.99;
    cpu_us = float_of_int (ticks1 - ticks0) /. Client.ticks_per_s /. n *. 1e6;
    driver_us = (cpu_s driver1 -. cpu_s driver0) /. n *. 1e6;
    setup_s;
    steal_pct =
      float_of_int (Client.steal_ticks () - steal0)
      /. (Client.ticks_per_s *. float_of_int host_cpus
          *. (float_of_int (Stats.now_ns () - start) /. 1e9))
      *. 100.0;
    serial_ids = (serial_lo, serial.base + serial.sent);
    probe_ms = (probe0 +. probe1) /. 2.0;
  }

let median_of rs f = Stats.median (Array.of_list (List.map f rs))

(* The host's speed drifts by a quarter and more over minutes, with no
   steal to show for it (other tenants share its cores and caches), and
   the daemon's figures drift with it. So each round also times a fixed
   piece of OCaml that calls none of the program's code, while the
   daemon under test has nothing to do: at the start and at the end of
   the round, the fastest of three runs each. A run reports each figure
   scaled to a host on which that probe takes [reference_probe_ms]: the
   median over the rounds of value * reference / probe for a time, and
   of value * probe / reference for a rate. The program's own speed is
   not in the probe, so a change to the program moves the scaled figure
   as it moves the measured one; the medians as measured are printed
   too. *)
let reference_probe_ms = 4.0

type figure = Time | Rate

let at_reference_speed rs f = function
  | Time -> median_of rs (fun r -> f r *. reference_probe_ms /. r.probe_ms)
  | Rate -> median_of rs (fun r -> f r *. r.probe_ms /. reference_probe_ms)

(* Each end-to-end figure a round measures. *)
let figures =
  [
    ("serial.p50_ms", (fun r -> r.serial_p50), "ms", Time);
    ("serial.p90_ms", (fun r -> r.serial_p90), "ms", Time);
    ("pipe.req_per_s", (fun r -> r.req_per_s), "1/s", Rate);
    ("pipe.p50_ms", (fun r -> r.pipe_p50), "ms", Time);
    ("pipe.p90_ms", (fun r -> r.pipe_p90), "ms", Time);
    ("pipe.cpu_us_per_req", (fun r -> r.cpu_us), "us", Time);
    ("setup_s", (fun r -> r.setup_s), "s", Time);
  ]

(* The [quiet_rounds] rounds measured while the hypervisor stole the
   least CPU time (ties keep their order): the traced run replays their
   serial lines. *)
let quietest rs =
  List.filteri
    (fun i _ -> i < quiet_rounds)
    (List.stable_sort (fun a b -> Float.compare a.steal_pct b.steal_pct) rs)

(* The serial ids the traced run replays: the whole 100-line blocks
   (so every mixed admit travels with its release) that the [quiet]
   rounds sent, taken round-robin so that any prefix spreads over all of
   those rounds. *)
let replay_ids quiet =
  let blocks =
    List.concat_map
      (fun (r : round) ->
        let lo, hi = r.serial_ids in
        let first = (lo + Gen.block - 1) / Gen.block in
        List.init (max 0 ((hi / Gen.block) - first)) (fun k -> (k, first + k)))
      quiet
  in
  (* every round's k-th block before any round's (k+1)-th *)
  List.stable_sort (fun (a, _) (b, _) -> compare a b) blocks
  |> List.concat_map (fun (_, b) ->
         List.init Gen.block (fun j -> (b * Gen.block) + j))
  |> Array.of_list

let traced_metrics ~workload ~seed ~seconds ~domains ~serial ~quiet ~summary
    ~driver_us =
  let name = Gen.workload_name workload in
  (* a cache's worth of distinct cold responses that cold and mixed
     traffic has already pushed through the daemon's cache *)
  let filler =
    match workload with
    | Gen.Hot -> []
    | Gen.Cold | Gen.Mixed ->
        Replay.entries
          (List.init Serve.Cache.default_entries (fun k ->
               Gen.cold_request ~seed ~id:(Gen.warm_base + k) (Gen.warm_base + k)))
  in
  let ids = replay_ids quiet in
  let lines = Array.map (fun id -> (Gen.request ~seed workload id).Gen.line) ids in
  (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
  let r =
    Replay.run ~domains ~filler ~warm:(Replay.entries Gen.warm) ~lines ~ids
      ~budget_ns:(seconds * 1_000_000_000 / 30)
      ~spans_path:(Printf.sprintf "perfbench/out/spans-%s-%d.tsv" name seed)
      ()
  in
  (* The step-by-step replay is the benchmark's copy of the pipeline; if
     it no longer answers as the program's own calls do, its split is
     suspect, but the program is not wrong: the daemon's responses went
     through the gate. *)
  if r.mismatches > 0 then
    Printf.printf
      "# WARNING the step-by-step replay differs from the daemon's own calls \
       on %d response(s): the synth.* split times a stale copy of the \
       pipeline\n"
      r.mismatches;
  (* the daemon's serial latency on exactly the lines replayed *)
  let e2e_us =
    let sum = ref 0.0 in
    for k = 0 to r.replayed - 1 do
      sum := !sum +. Hashtbl.find serial.latency_ms ids.(k)
    done;
    !sum /. float_of_int (max 1 r.replayed) *. 1000.0
  in
  let residual = e2e_us -. r.layer_sum_us in
  Printf.printf
    "# self-check %s: layers %.1f us + residual %.1f us = e2e %.1f us (daemon \
     serial mean over the %d replayed requests, from the %d rounds marked *), \
     trace.overhead_pct %.1f\n"
    name r.layer_sum_us residual e2e_us r.replayed (List.length quiet)
    r.overhead_pct;
  if residual < 0.0 then
    print_endline "# WARNING negative residual: the layers exceed e2e";
  r.layers
  @ [
      ("server.pool_speedup", r.pool_speedup, "ratio");
      ( "daemon.wave_size",
        float_of_int summary.Client.submitted
        /. float_of_int (max 1 summary.drains),
        "req" );
      ("daemon.residual_us", residual, "us");
      ("trace.overhead_pct", r.overhead_pct, "%");
      ("driver.cpu_us_per_req", driver_us, "us");
    ]

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref 0 and daemon = ref "_build/default/bin/hetsched.exe" in
  Arg.parse
    [
      ( "--workload",
        Arg.String (fun s -> workload := Gen.workload_of_string s),
        " hot, cold or mixed" );
      ("--seed", Arg.Int (fun n -> seed := Some n), " stream seed");
      ("--seconds", Arg.Int (fun n -> seconds := Some n), " measured seconds");
      ("--trace", Arg.Set_int trace, " 1: per-layer replay instead");
      ("--daemon", Arg.Set_string daemon, " path to hetsched.exe");
    ]
    (fun _ -> usage ())
    "perfbench";
  let workload, seed, seconds =
    match (!workload, !seed, !seconds) with
    | Some w, Some s, Some t when t >= 1 && (!trace = 0 || !trace = 1) ->
        (w, s, t)
    | _ -> usage ()
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* the oversubscription guard: the daemon's domains and the driver's
     one thread together never outnumber the cores *)
  let recommended = Domain.recommended_domain_count () in
  let nproc = Option.value (Client.allowed_cpus ()) ~default:recommended in
  let domains = max 1 (min (nproc - 1) recommended) in
  (* this process's own solves (the gate's expected responses, the traced
     replay) run on as many domains as the daemon's *)
  Par.Pool.set_global_domains domains;
  let gate = Gate.create ~seed in
  (* --- set-up --- *)
  let setup_one () =
    let t0 = Stats.now_ns () in
    let d = Client.spawn ~exe:!daemon ~domains in
    let ph =
      let pending = ref Gen.warm in
      new_phase ~base:Gen.warm_base (fun () ->
          match !pending with
          | [] -> None
          | r :: rest ->
              pending := rest;
              Some r)
    in
    ignore (run_slice d ph ~depth:pipe_depth ~until:max_int);
    let setup_s = float_of_int (Stats.now_ns () - t0) /. 1e9 in
    Gate.warm gate ~responses:ph.responses ~strays:ph.strays;
    (d, setup_s)
  in
  let d, _ = setup_one () in
  let setup () =
    let d, s = setup_one () in
    ignore (Client.finish d);
    s
  in
  (* --- the measured rounds --- *)
  let rt_order = ref [] in
  let phase base = new_phase ~base (stream ~seed workload ~rt_order base) in
  let serial = phase Gen.serial_base and pipe = phase Gen.pipe_base in
  let round_ns = seconds * 1_000_000_000 / rounds in
  let host_cpus = Client.host_cpus () in
  let round () = run_round ~setup ~host_cpus d ~serial ~pipe ~round_ns in
  ignore (round ());
  let rs = List.init rounds (fun _ -> round ()) in
  let rss_kb = Option.value (Client.status_field (string_of_int d.Client.pid) "VmHWM") ~default:0 in
  let summary = Client.finish d in
  (* --- the gate --- *)
  Gate.phase gate ~workload ~base:serial.base ~sent:serial.sent
    ~responses:serial.responses ~strays:serial.strays;
  Gate.phase gate ~workload ~base:pipe.base ~sent:pipe.sent
    ~responses:pipe.responses ~strays:pipe.strays;
  Gate.admissions gate ~workload ~order:(List.rev !rt_order);
  (* the gate has read every response: free them, so a traced replay runs
     on a heap no bigger than the daemon's *)
  serial.responses <- [];
  pipe.responses <- [];
  Gc.compact ();
  let driver_us = median_of rs (fun r -> r.driver_us) in
  Printf.printf "# perfbench %s seed=%d seconds=%d trace=%d\n"
    (Gen.workload_name workload) seed seconds !trace;
  Printf.printf
    "# host nproc=%d ocaml=%s daemon_domains=%d driver_threads=%d \
     driver.cpu_us_per_req=%.2f probe_ms=%.3f\n"
    nproc Sys.ocaml_version domains
    (Option.value (Client.status_field "self" "Threads") ~default:0)
    driver_us
    (median_of rs (fun r -> r.probe_ms));
  Printf.printf
    "# %d rounds after a warm-up one: serial %d requests, pipelined %d \
     requests; each metric is the median over the rounds, scaled to a \
     host whose probe takes %.1f ms; the %d rounds marked * have the \
     least steal\n"
    rounds serial.sent pipe.sent reference_probe_ms quiet_rounds;
  Printf.printf
    "# daemon exit summary: cache %d hit(s), %d miss(es), %d eviction(s); %d \
     solve(s) in %d wave(s)\n"
    summary.hits summary.misses summary.evictions summary.submitted
    summary.drains;
  let quiet = quietest rs in
  List.iteri
    (fun i r ->
      Printf.printf
        "# round %d%s: set-up %.4f s, serial p50 %.4f p90 %.4f p99 %.4f ms, \
         pipe %.1f req/s p50 %.3f p90 %.3f p99 %.3f ms, %.1f us cpu/req, \
         %.2f%% steal, probe %.3f ms\n"
        (i + 1)
        (if List.memq r quiet then "*" else "")
        r.setup_s r.serial_p50 r.serial_p90 r.serial_p99 r.req_per_s
        r.pipe_p50 r.pipe_p90 r.pipe_p99
        r.cpu_us r.steal_pct r.probe_ms)
    rs;
  let metrics =
    if !trace = 0 then
      ("rss_peak_mb", float_of_int rss_kb /. 1024.0, "MB")
      :: List.map
           (fun (name, f, unit, kind) ->
             (name, at_reference_speed rs f kind, unit))
           figures
    else
      (* the replay runs after the daemon has exited, so its pool may
         take every core *)
      traced_metrics ~workload ~seed ~seconds
        ~domains:(max 1 (min nproc recommended))
        ~serial ~quiet ~summary
        ~driver_us
  in
  List.iter (Printf.printf "# FAIL %s\n") (List.rev gate.notes);
  List.iter print_metric metrics;
  (* The figures as measured are printed but not in the result, and so
     are the p99s: a burst of steal of a few tens of milliseconds lands
     in a p99 whole, so on a shared host it measures the neighbours more
     than the program. *)
  if !trace = 0 then
    List.iter
      (fun (name, f, unit, _) ->
        Printf.printf "%-22s %14.6g %s as measured (not in the result)\n"
          name (median_of rs f) unit)
      (figures
      @ [
          ("serial.p99_ms", (fun r -> r.serial_p99), "ms", Time);
          ("pipe.p99_ms", (fun r -> r.pipe_p99), "ms", Time);
        ]);
  Printf.printf "%-22s %14.6g (%d of %d)\n" "fail_ratio"
    (float_of_int gate.failed /. float_of_int (max 1 gate.attempted))
    gate.failed gate.attempted;
  print_endline
    (json_result ~correct:(gate.failed = 0) ~attempted:gate.attempted
       ~failed:gate.failed metrics);
  if gate.failed > 0 then exit 1
