(* The benchmark's own tests: its request streams are what they claim. *)

open Perfbench

let seed = 7
let workloads = [ Gen.Hot; Gen.Cold; Gen.Mixed ]

(* the first [n] lines of the serial and the pipelined region *)
let timed ?(seed = seed) ?(n = 300) w =
  List.concat_map
    (fun base -> List.init n (fun i -> Gen.request ~seed w (base + i)))
    [ Gen.serial_base; Gen.pipe_base ]

let parse (r : Gen.request) =
  match Serve.Jsonl.line_of_string ~lookup:Gen.serve_lookup ~line:1 r.line with
  | Ok l -> l
  | Error msg -> Alcotest.failf "id %d does not parse: %s" r.id msg

let digest r =
  match parse r with
  | Serve.Jsonl.Solve item -> Serve.Cache.digest item.request
  | _ -> Alcotest.failf "id %d is not a solve line" r.id

let lines rs = List.map (fun (r : Gen.request) -> r.line) rs

let test_deterministic () =
  List.iter
    (fun w ->
      let name = Gen.workload_name w in
      Alcotest.(check (list string))
        (name ^ ": same seed, same bytes")
        (lines (timed w @ Gen.warm))
        (lines (timed w @ Gen.warm));
      Alcotest.(check bool)
        (name ^ ": another seed, another stream")
        false
        (lines (timed w) = lines (timed ~seed:(seed + 1) w)))
    workloads

let test_ids () =
  List.iter
    (fun w ->
      List.iter
        (fun base ->
          let r = Gen.request ~seed w (base + 42) in
          Alcotest.(check (option int))
            "the response id the driver reads is the line's id"
            (Some r.id)
            (Client.id_of_line r.line);
          Alcotest.(check int) "id = index" (base + 42) r.id)
        [ Gen.serial_base; Gen.pipe_base ])
    workloads

let test_cold_distinct () =
  let digests = List.map digest (timed Gen.Cold) in
  let distinct = List.sort_uniq compare digests in
  Alcotest.(check int)
    "no two cold requests share a digest" (List.length digests)
    (List.length distinct);
  Alcotest.(check bool)
    "more distinct cold digests than the cache holds" true
    (List.length distinct > Serve.Cache.default_entries)

let test_cold_mix () =
  let rs = List.init 64 (fun i -> Gen.request ~seed Gen.Cold i) in
  let inline =
    List.filter (fun (r : Gen.request) -> Gate.contains r.line {|"graph"|}) rs
  in
  Alcotest.(check int) "a quarter are inline DAGs" 16 (List.length inline);
  List.iter
    (fun r ->
      match parse r with
      | Serve.Jsonl.Solve item ->
          let n = Dfg.Graph.num_nodes item.request.graph in
          Alcotest.(check bool) "32..128 nodes" true (n >= 32 && n <= 128)
      | _ -> Alcotest.fail "inline lines are solves")
    inline;
  Alcotest.(check int)
    "a quarter carry validate" 16
    (List.length (List.filter (fun (r : Gen.request) -> r.validate) rs))

let test_hot_in_warm_set () =
  let warm = List.map digest Gen.warm in
  Alcotest.(check int)
    "the warm set is 32 distinct requests" Gen.hot_size
    (List.length (List.sort_uniq compare warm));
  List.iter
    (fun r ->
      if not (List.mem (digest r) warm) then
        Alcotest.failf "hot id %d is not in the warm set" r.id)
    (* one warm set serves every seed *)
    (timed Gen.Hot @ timed ~seed:(seed + 1) Gen.Hot)

let test_mixed () =
  (* five blocks: 490 solve lines, a whole number of 4:1 groups *)
  let n = 5 * Gen.block in
  List.iter
    (fun base ->
      let rs = List.init n (fun i -> Gen.request ~seed Gen.Mixed (base + i)) in
      let count p = List.length (List.filter p rs) in
      let hot =
        count (fun r -> match r.kind with Gen.Hot_entry _ -> true | _ -> false)
      and cold = count (fun r -> r.kind = Gen.Cold_entry) in
      Alcotest.(check int) "hot:cold is 4:1" (4 * cold) hot;
      Alcotest.(check int) "one admit/release pair per 100 lines" (n - 10)
        (hot + cold);
      let warm = List.map digest Gen.warm in
      List.iteri
        (fun i (r : Gen.request) ->
          match r.kind with
          | Gen.Admit task ->
              let released =
                List.exists
                  (fun (later : Gen.request) ->
                    later.id > r.id && later.kind = Gen.Release task)
                  rs
              in
              if not released then Alcotest.failf "admit %s is never released" task;
              (match parse r with
              | Serve.Jsonl.Admit a ->
                  Alcotest.(check bool)
                    "admits solve a warm-set instance" true
                    (List.mem (Serve.Cache.digest a.periodic.request) warm)
              | _ -> Alcotest.fail "admit lines parse as admits")
          | Gen.Release task ->
              if
                not
                  (List.exists
                     (fun (earlier : Gen.request) ->
                       earlier.id < r.id && earlier.kind = Gen.Admit task)
                     (List.filteri (fun j _ -> j < i) rs))
              then Alcotest.failf "release %s precedes its admit" task
          | Gen.Hot_entry _ | Gen.Cold_entry -> ignore (digest r))
        rs)
    [ Gen.serial_base; Gen.pipe_base ]

(* The step-by-step replay must answer exactly as the daemon's own
   calls do, on every knob shape and on admission lines. *)
let test_replay () =
  List.iter
    (fun (w, n) ->
      let ids = Array.init n Fun.id in
      let lines = Array.map (fun i -> (Gen.request ~seed w i).line) ids in
      let r =
        Replay.run ~domains:1 ~filler:[]
          ~warm:(Replay.entries Gen.warm)
          ~lines ~ids ~budget_ns:max_int ()
      in
      let name = Gen.workload_name w in
      Alcotest.(check int) (name ^ ": every line replayed") n r.replayed;
      Alcotest.(check int) (name ^ ": same responses") 0 r.mismatches;
      Alcotest.(check bool)
        (name ^ ": the layers took time") true (r.layer_sum_us > 0.0))
    [ (Gen.Cold, 24); (Gen.Mixed, 70) ]

let test_summary () =
  let s =
    Client.parse_summary
      "served 10 request(s)\n\
       cache: 7 hit(s), 3 miss(es), 1 eviction(s)\n\
       malformed input lines: 0\n\
      \  serve.drains: 4\n\
      \  serve.requests: 9\n"
  in
  Alcotest.(check (list int))
    "hits, misses, evictions, drains, submitted" [ 7; 3; 1; 4; 9 ]
    [ s.hits; s.misses; s.evictions; s.drains; s.submitted ]

let test_quantile () =
  let a = Array.init 101 float_of_int in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.quantile a 0.5);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Stats.quantile a 0.99);
  Alcotest.(check (float 1e-9))
    "interpolates" 1.5
    (Stats.quantile [| 1.0; 2.0 |] 0.5)

let () =
  Alcotest.run "perfbench"
    [
      ( "streams",
        [
          Alcotest.test_case "same seed, same stream" `Quick test_deterministic;
          Alcotest.test_case "ids" `Quick test_ids;
          Alcotest.test_case "cold digests distinct" `Quick test_cold_distinct;
          Alcotest.test_case "cold mix" `Quick test_cold_mix;
          Alcotest.test_case "hot in warm set" `Quick test_hot_in_warm_set;
          Alcotest.test_case "mixed 4:1, admits released" `Quick test_mixed;
          Alcotest.test_case "replay answers as the daemon" `Quick test_replay;
        ] );
      ( "driver",
        [
          Alcotest.test_case "exit summary" `Quick test_summary;
          Alcotest.test_case "quantiles" `Quick test_quantile;
        ] );
    ]
