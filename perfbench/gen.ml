(* Seeded request streams for the daemon benchmark.

   A stream is a pure function of (seed, workload, index): line [i] of a
   workload always has id [i] and the same bytes, so the driver never
   stores what it sent — the correctness gate regenerates a request from
   the id on its response. Three disjoint index regions keep the phases
   apart: the serial phase reads from [serial_base], the pipelined phase
   from [pipe_base]; [warm_base] numbers the warm-up batch.

   Knob shapes cycle over plain, validate, levels:3 and rtl. The hot
   working set is 32 entries h = 0..31 with benchmark h mod 9 and shape
   h mod 4; since 9 and 4 are coprime every entry is a distinct
   (benchmark, shape) pair, so the 32 digests are distinct. *)

type workload = Hot | Cold | Mixed

let workload_name = function Hot -> "hot" | Cold -> "cold" | Mixed -> "mixed"

let workload_of_string = function
  | "hot" -> Some Hot
  | "cold" -> Some Cold
  | "mixed" -> Some Mixed
  | _ -> None

type kind =
  | Hot_entry of int  (** index into the hot working set *)
  | Cold_entry
  | Admit of string  (** admission-controller task key *)
  | Release of string

type request = { id : int; kind : kind; validate : bool; line : string }

let serial_base = 0
let pipe_base = 1_000_000
let warm_base = 2_000_000
let hot_size = 32

(* bin/hetsched.ml's serve_lookup, which lives in an executable: the
   daemon resolves "benchmark" names exactly like this *)
let serve_lookup name ~seed =
  Option.map
    (fun g ->
      let rng = Workloads.Prng.create seed in
      (g, Workloads.Tables.for_graph rng ~library:Fulib.Library.standard3 g))
    (List.assoc_opt name (Workloads.Filters.extended ()))

let benchmarks = Array.of_list (List.map fst (Workloads.Filters.extended ()))
let factors = [| "1.2"; "1.5"; "2.0" |]
let periods = [| 64; 128; 256; 512 |]

let shape_fields = function
  | 0 -> ""
  | 1 -> {|,"validate":true|}
  | 2 -> {|,"levels":3|}
  | _ -> {|,"rtl":true|}

(* Random access into the stream: each (seed, tag, index) gets its own
   generator, seeded through a 63-bit mix so neighbouring indices are
   independent. *)
let mix seed tag i =
  let h = ref ((seed * 0x1E3779B97F4A7C15) + (tag * 0x2545F4914F6CDD1D) + i) in
  h := (!h lxor (!h lsr 29)) * 0x3C6EF372FE94F82B;
  h := (!h lxor (!h lsr 32)) * 0x1B873593CC9E2D51;
  (!h lxor (!h lsr 29)) land max_int

let rng seed tag i = Workloads.Prng.create (mix seed tag i)

(* The body of a named-benchmark request after its id, up to the closing
   brace. *)
let named_tail ~bench ~table_seed ~factor ~shape extra =
  Printf.sprintf {|,"benchmark":"%s","seed":%d,"deadline_factor":%s%s%s}|}
    benchmarks.(bench) table_seed factor (shape_fields shape) extra

let with_id id tail = {|{"id":|} ^ string_of_int id ^ tail

(* --- hot working set --------------------------------------------------- *)

(* The hot working set is the same for every seed, so the warm-up batch,
   and with it set-up time, costs the same whatever the seed; the seed
   picks the order in which the streams visit it. Hot table seeds live in
   [10^12, 10^12 + 10^9), above every cold one. *)
let hot_params h =
  let r = rng 0 1 h in
  let factor = factors.(Workloads.Prng.int r 3) in
  let table_seed = 1_000_000_000_000 + Workloads.Prng.int r 1_000_000_000 in
  (h mod Array.length benchmarks, table_seed, factor, h mod 4)

let hot_tail h =
  let bench, table_seed, factor, shape = hot_params h in
  named_tail ~bench ~table_seed ~factor ~shape ""

let hot_request ~id h =
  {
    id;
    kind = Hot_entry h;
    validate = h mod 4 = 1;
    line = with_id id (hot_tail h);
  }

(* --- cold requests ----------------------------------------------------- *)

let add_int b v = Buffer.add_string b (string_of_int v)

let add_ints b a =
  Buffer.add_char b '[';
  Array.iteri
    (fun k v ->
      if k > 0 then Buffer.add_char b ',';
      add_int b v)
    a;
  Buffer.add_char b ']'

(* An inline random DAG of 32..128 nodes, written straight from the
   generator so the driver spends little time per line: a random tree
   (each node hangs off an earlier one) plus n/3 extra forward edges,
   one node in three a multiplier, and a three-type table whose times
   rise and costs fall from P1 to P3, multipliers slower, as in
   Workloads.Tables.for_graph. *)
let inline_line ~id r ~factor ~shape =
  let int = Workloads.Prng.int r in
  let n = 32 + int 97 in
  let mul = Array.init n (fun _ -> int 3 = 0) in
  let edges = Hashtbl.create (2 * n) in
  for v = 1 to n - 1 do
    Hashtbl.replace edges (int v, v) ()
  done;
  let extra = ref 0 in
  while !extra < n / 3 do
    let a = int n and b = int n in
    if a < b && not (Hashtbl.mem edges (a, b)) then begin
      Hashtbl.replace edges (a, b) ();
      incr extra
    end
  done;
  let b = Buffer.create (64 * n) in
  Buffer.add_string b {|{"id":|};
  add_int b id;
  Buffer.add_string b {|,"graph":{"nodes":[|};
  for v = 0 to n - 1 do
    if v > 0 then Buffer.add_char b ',';
    Buffer.add_string b {|{"name":"v|};
    add_int b v;
    Buffer.add_string b (if mul.(v) then {|","op":"mul"}|} else {|","op":"add"}|})
  done;
  Buffer.add_string b {|],"edges":[|};
  let sorted = List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) edges []) in
  List.iteri
    (fun k (src, dst) ->
      if k > 0 then Buffer.add_char b ',';
      Buffer.add_char b '[';
      add_int b src;
      Buffer.add_char b ',';
      add_int b dst;
      Buffer.add_string b ",0]")
    sorted;
  Buffer.add_string b {|]},"table":{"types":["P1","P2","P3"],"time":[|};
  let times = Array.make n [||] and costs = Array.make n [||] in
  for v = 0 to n - 1 do
    let t0 = if mul.(v) then 2 + int 3 else 1 + int 2 in
    let t1 = t0 + 1 + int 3 in
    times.(v) <- [| t0; t1; t1 + 1 + int 3 |];
    let c2 = 1 + int 5 in
    let c1 = c2 + 2 + int 7 in
    costs.(v) <- [| c1 + 2 + int 7; c1; c2 |]
  done;
  Array.iteri
    (fun v row ->
      if v > 0 then Buffer.add_char b ',';
      add_ints b row)
    times;
  Buffer.add_string b {|],"cost":[|};
  Array.iteri
    (fun v row ->
      if v > 0 then Buffer.add_char b ',';
      add_ints b row)
    costs;
  Buffer.add_string b {|]},"deadline_factor":|};
  Buffer.add_string b factor;
  Buffer.add_string b (shape_fields shape);
  Buffer.add_char b '}';
  Buffer.contents b

(* Cold request [k] of a seed: shape k mod 4; every fourth group of four
   is an inline DAG, the rest name a benchmark with a table seed that no
   other cold request of this seed uses (and no hot one: those are all
   >= 10^12). *)
let cold_request ~seed ~id k =
  let r = rng seed 2 k in
  let factor = factors.(Workloads.Prng.int r 3) in
  let shape = k mod 4 in
  let line =
    if k / 4 mod 4 = 3 then inline_line ~id r ~factor ~shape
    else
      let bench = Workloads.Prng.int r (Array.length benchmarks) in
      let table_seed = (seed land 0xFFFF * 10_000_000) + k + 1 in
      with_id id (named_tail ~bench ~table_seed ~factor ~shape "")
  in
  { id; kind = Cold_entry; validate = shape = 1; line }

(* --- mixed ------------------------------------------------------------- *)

(* Blocks of 100 lines: an admit at offset 10, its release at offset 60,
   and 98 solve lines in between that alternate four hot picks and one
   cold request. Admits carry a plain hot instance, so their solve is a
   cache hit like the hot lines around them. *)
let block = 100
let admit_at = 10
let release_at = 60

let mixed_request ~seed i =
  let b = i / block and pos = i mod block in
  let task = "t" ^ string_of_int b in
  if pos = admit_at then
    let r = rng seed 4 b in
    let h = 4 * Workloads.Prng.int r (hot_size / 4) in
    let period = periods.(Workloads.Prng.int r (Array.length periods)) in
    let bench, table_seed, factor, shape = hot_params h in
    let extra = Printf.sprintf {|,"cmd":"admit","task":"%s","period":%d|} task period in
    {
      id = i;
      kind = Admit task;
      validate = false;
      line = with_id i (named_tail ~bench ~table_seed ~factor ~shape extra);
    }
  else if pos = release_at then
    {
      id = i;
      kind = Release task;
      validate = false;
      line = Printf.sprintf {|{"id":%d,"cmd":"release","task":"%s"}|} i task;
    }
  else
    let k =
      (b * (block - 2)) + pos
      - (if pos > admit_at then 1 else 0)
      - if pos > release_at then 1 else 0
    in
    if k mod 5 = 4 then cold_request ~seed ~id:i k
    else hot_request ~id:i (Workloads.Prng.int (rng seed 3 i) hot_size)

(* --- the stream -------------------------------------------------------- *)

let request ~seed workload i =
  match workload with
  | Hot -> hot_request ~id:i (Workloads.Prng.int (rng seed 3 i) hot_size)
  | Cold -> cold_request ~seed ~id:i i
  | Mixed -> mixed_request ~seed i

(* The warm-up batch every set-up sends, whatever the workload and seed:
   the hot working set. *)
let warm = List.init hot_size (fun h -> hot_request ~id:(warm_base + h) h)

(* The fixed seeded sample of cold responses checked byte for byte. *)
let sampled ~seed id = mix seed 5 id mod 32 = 0
