(* Wire-level golden: the exact response line the daemon would write for a
   fixed set of request lines — the nine named benchmarks under every knob
   shape and algorithm, plus seeded inline random DAGs (multi-edges,
   delayed edges, data sizes, finite memory capacities). Any change to
   Phase 1, Phase 2, reclaim, checking, RTL lowering or response rendering
   that moves a single byte fails here. Regenerate after an intentional
   change with

     dune exec test/test_wire_golden.exe -- --print > test/golden/wire_responses.txt

   and review the diff like any other code change. *)

let algorithms = [ "repeat"; "once"; "repeat_search"; "greedy" ]
let factors = [| "1.0"; "1.2"; "1.5"; "2.0" |]

let shape_fields = function
  | 0 -> ""
  | 1 -> {|,"validate":true|}
  | 2 -> {|,"levels":3|}
  | _ -> {|,"rtl":true|}

let named_lines () =
  let names = List.map fst (Workloads.Filters.extended ()) in
  List.concat
    (List.mapi
       (fun b name ->
         List.concat
           (List.init 4 (fun shape ->
                List.mapi
                  (fun a algorithm ->
                    let i = (((b * 4) + shape) * 4) + a in
                    Printf.sprintf
                      {|{"id":"%s-%d-%s","benchmark":"%s","seed":%d,"deadline_factor":%s,"algorithm":"%s"%s}|}
                      name shape algorithm name (100 + i)
                      factors.(i mod Array.length factors)
                      algorithm (shape_fields shape))
                  algorithms)))
       names)

(* --- inline instances -------------------------------------------------- *)

let ints b a =
  Buffer.add_char b '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int v))
    a;
  Buffer.add_char b ']'

let inline_json ~id g table ~factor ~algorithm ~shape =
  let b = Buffer.create 4096 in
  Printf.bprintf b {|{"id":"inline-%d","graph":{"nodes":[|} id;
  for v = 0 to Dfg.Graph.num_nodes g - 1 do
    if v > 0 then Buffer.add_char b ',';
    Printf.bprintf b {|{"name":"%s","op":"%s"}|} (Dfg.Graph.name g v)
      (Dfg.Graph.op g v)
  done;
  Buffer.add_string b {|],"edges":[|};
  List.iteri
    (fun i { Dfg.Graph.src; dst; delay; size } ->
      if i > 0 then Buffer.add_char b ',';
      ints b [| src; dst; delay; size |])
    (Dfg.Graph.edges g);
  let lib = Fulib.Table.library table in
  let k = Fulib.Table.num_types table in
  Buffer.add_string b {|]},"table":{"types":[|};
  for t = 0 to k - 1 do
    if t > 0 then Buffer.add_char b ',';
    Printf.bprintf b {|"%s"|} (Fulib.Library.type_name lib t)
  done;
  let rows f =
    Buffer.add_char b '[';
    for v = 0 to Fulib.Table.num_nodes table - 1 do
      if v > 0 then Buffer.add_char b ',';
      ints b (Array.init k (fun ftype -> f table ~node:v ~ftype))
    done;
    Buffer.add_char b ']'
  in
  Buffer.add_string b {|],"time":|};
  rows Fulib.Table.time;
  Buffer.add_string b {|,"cost":|};
  rows Fulib.Table.cost;
  if Fulib.Table.mem_bounded table then begin
    Buffer.add_string b {|,"mem_capacity":|};
    ints b (Fulib.Table.mem_capacities table)
  end;
  Printf.bprintf b {|},"deadline_factor":%s,"algorithm":"%s"%s}|} factor
    algorithm (shape_fields shape);
  Buffer.contents b

(* Instance [i]: a random DAG of 8..55 nodes; every third carries a
   repeated edge, every fifth a delayed back edge, every fourth edge data
   sizes under a finite memory split (tight or loose). *)
let inline_instance i =
  let rng = Workloads.Prng.create (7000 + i) in
  let n = 8 + Workloads.Prng.int rng 48 in
  let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:(n / 3) in
  let extra =
    (if i mod 3 = 0 then
       match Dfg.Graph.edges g with
       | e :: _ -> [ e ]
       | [] -> []
     else [])
    @
    if i mod 5 = 0 then
      [ { Dfg.Graph.src = n - 1; dst = 0; delay = 1 + (i mod 2); size = 0 } ]
    else []
  in
  let g =
    if extra = [] then g
    else
      Dfg.Graph.of_edges ~names:(Dfg.Graph.names g)
        ~ops:(Array.init n (Dfg.Graph.op g))
        (Dfg.Graph.edges g @ extra)
  in
  let g = if i mod 4 = 1 then Workloads.Random_dfg.with_sizes rng g else g in
  let table = Workloads.Tables.for_graph rng ~library:Fulib.Library.standard3 g in
  let table =
    if i mod 4 = 1 then
      Workloads.Tables.mem_tight ~slack:(if i mod 8 = 1 then 1.25 else 3.0) g
        table
    else table
  in
  inline_json ~id:i g table
    ~factor:factors.(i mod Array.length factors)
    ~algorithm:(List.nth algorithms (i mod 4))
    ~shape:(i / 4 mod 4)

let inline_count = 40

let lines () = named_lines () @ List.init inline_count inline_instance

let respond ~line s =
  match Serve.Jsonl.line_of_string ~lookup:Workloads.Filters.lookup ~line s with
  | Ok (Serve.Jsonl.Solve item) ->
      Serve.Jsonl.response_to_string ~id:item.Serve.Jsonl.id
        (Core.Synthesis.solve item.Serve.Jsonl.request)
  | Ok _ -> Alcotest.failf "line %d is not a solve line" line
  | Error msg -> Alcotest.failf "line %d does not parse: %s" line msg

let responses () = List.mapi (fun i s -> respond ~line:(i + 1) s) (lines ())

let test_golden () =
  let path = Filename.concat "golden" "wire_responses.txt" in
  let expected =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  let actual = responses () in
  Alcotest.(check int) "response count" (List.length expected)
    (List.length actual);
  List.iteri
    (fun i (e, a) ->
      if e <> a then
        Alcotest.failf "response %d drifted:\n  golden: %s\n  actual: %s"
          (i + 1) e a)
    (List.combine expected actual)

let () =
  (* the golden pins the default daemon: validation only where a line asks *)
  Check.Env.set_override (Some false);
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    List.iter print_endline (responses ())
  else
    Alcotest.run "wire golden"
      [ ("wire golden", [ Helpers.quick "responses" test_golden ]) ]
