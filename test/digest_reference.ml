(* Reference oracle for Serve.Cache.digest: the straightforward writer,
   every int through [string_of_int] and the edge set sorted with
   polymorphic [compare] on tuples. The library's writer must produce
   exactly this text, so its keys must equal these on every request. *)

let text (req : Core.Synthesis.request) =
  let g = req.Core.Synthesis.graph and table = req.Core.Synthesis.table in
  let n = Dfg.Graph.num_nodes g in
  let buf = Buffer.create 1024 in
  let int v = Buffer.add_string buf (string_of_int v) in
  let ch c = Buffer.add_char buf c in
  ch 'n';
  int n;
  ch ';';
  let edges =
    List.sort compare
      (List.map
         (fun { Dfg.Graph.src; dst; delay; size } -> (src, dst, delay, size))
         (Dfg.Graph.edges g))
  in
  List.iter
    (fun (src, dst, delay, size) ->
      ch 'e';
      int src;
      ch ',';
      int dst;
      ch ',';
      int delay;
      ch ',';
      int size;
      ch ';')
    edges;
  let k = Fulib.Table.num_types table in
  ch 'k';
  int k;
  ch ';';
  Array.iter
    (fun c ->
      ch 'm';
      int c;
      ch ';')
    (Fulib.Table.mem_capacities table);
  for v = 0 to n - 1 do
    for ftype = 0 to k - 1 do
      int (Fulib.Table.time table ~node:v ~ftype);
      ch ',';
      int (Fulib.Table.cost table ~node:v ~ftype);
      ch ';'
    done
  done;
  ch 'T';
  int req.Core.Synthesis.deadline;
  Buffer.add_string buf ";a=";
  Buffer.add_string buf
    (Core.Synthesis.algorithm_name req.Core.Synthesis.algorithm);
  Buffer.add_string buf
    (match req.Core.Synthesis.scheduler with
    | Core.Synthesis.List_scheduling -> ";s=list"
    | Core.Synthesis.Force_directed -> ";s=force");
  Buffer.add_string buf
    (if req.Core.Synthesis.validate then ";v=true" else ";v=false");
  Buffer.add_string buf ";b=";
  (match req.Core.Synthesis.budget_ms with
  | None -> ch '-'
  | Some ms -> int ms);
  Buffer.add_string buf ";L";
  (match req.Core.Synthesis.levels with
  | None -> ch '-'
  | Some levels ->
      Array.iter
        (fun ladder ->
          ch 't';
          Array.iter
            (fun (l : Fulib.Dvfs.level) ->
              ch 'l';
              int l.Fulib.Dvfs.freq_pct;
              ch ',';
              int l.Fulib.Dvfs.time_pct;
              ch ',';
              int l.Fulib.Dvfs.energy_pct;
              ch ';')
            ladder)
        levels);
  Buffer.add_string buf (if req.Core.Synthesis.rtl then ";R1" else ";R0");
  Buffer.contents buf

let digest req = Digest.to_hex (Digest.string (text req))
