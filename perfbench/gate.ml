(* The correctness gate. Every id must be answered exactly once; every
   hot response, a fixed seeded sample of cold ones and every admission
   verdict must equal, byte for byte, what this process computes with
   Core.Synthesis.solve and Serve.Jsonl's printers; every other solve
   must be "ok", and every validate:true response must carry
   "violations":[], the independent Check oracles' verdict. *)

module J = Obs.Json

type t = {
  seed : int;
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (* the first few failures, newest first *)
  hot : (int, Core.Synthesis.response) Hashtbl.t;
  adm : Rt.Admission.t;  (* replays the daemon's per-connection one *)
  verdicts : (int, string) Hashtbl.t;  (* admit/release responses by id *)
}

let create ~seed =
  {
    seed;
    attempted = 0;
    failed = 0;
    notes = [];
    hot = Hashtbl.create 32;
    adm = Rt.Admission.create ();
    verdicts = Hashtbl.create 64;
  }

let fail g fmt =
  Printf.ksprintf
    (fun msg ->
      g.failed <- g.failed + 1;
      if List.length g.notes < 5 then g.notes <- msg :: g.notes)
    fmt

let parse line =
  match Serve.Jsonl.line_of_string ~lookup:Gen.serve_lookup ~line:1 line with
  | Ok l -> l
  | Error msg -> failwith ("the generator wrote a bad line: " ^ msg)

let solve_line line =
  match parse line with
  | Serve.Jsonl.Solve item -> Core.Synthesis.solve item.Serve.Jsonl.request
  | _ -> failwith "expected a solve line"

let hot_response g h =
  match Hashtbl.find_opt g.hot h with
  | Some r -> r
  | None ->
      let r = solve_line (Gen.hot_request ~id:0 h).Gen.line in
      Hashtbl.replace g.hot h r;
      r

(* First index of [sub] in [s], scanning without allocating. *)
let find s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec at i = if i + m > n then None else if matches i 0 then Some i else at (i + 1) in
  at 0

let contains s sub = Option.is_some (find s sub)

let status line =
  let key = {|"status":"|} in
  Option.bind (find line key) (fun i ->
      let start = i + String.length key in
      Option.map
        (fun e -> String.sub line start (e - start))
        (String.index_from_opt line start '"'))

let clip l = if String.length l <= 80 then l else String.sub l 0 80 ^ "..."

let check_response g (req : Gen.request) line =
  let id = J.Int req.Gen.id in
  let expect what expected =
    if line <> expected then
      fail g "id %d (%s): response differs from the in-process one" req.id what
  in
  (match req.kind with
  | Gen.Hot_entry h ->
      expect "hot" (Serve.Jsonl.response_to_string ~id (hot_response g h))
  | Gen.Cold_entry ->
      if Gen.sampled ~seed:g.seed req.id then
        expect "cold sample"
          (Serve.Jsonl.response_to_string ~id (solve_line req.line))
      else if status line <> Some "ok" then
        fail g "id %d: status %s" req.id
          (Option.value (status line) ~default:"missing")
  | Gen.Admit _ | Gen.Release _ -> Hashtbl.replace g.verdicts req.id line);
  if req.validate && not (contains line {|"violations":[]|}) then
    fail g "id %d: a validate:true response without \"violations\":[]" req.id

(* [phase g ~workload ~base ~sent ~responses ~strays] checks one phase
   whose requests were ids [base, base + sent), answered by [responses]
   ((id, line) in arrival order). Admission verdicts are only collected
   here; {!admissions} checks them. *)
let phase g ~workload ~base ~sent ~responses ~strays =
  g.attempted <- g.attempted + sent;
  List.iter (fun l -> fail g "unmatched response line: %s" (clip l)) strays;
  let seen = Array.make sent false in
  let ordered = List.sort (fun (a, _) (b, _) -> compare a b) responses in
  List.iter
    (fun (id, line) ->
      let i = id - base in
      if i < 0 || i >= sent then fail g "id %d was never sent" id
      else if seen.(i) then fail g "id %d answered twice" id
      else begin
        seen.(i) <- true;
        check_response g (Gen.request ~seed:g.seed workload id) line
      end)
    ordered;
  Array.iteri (fun i s -> if not s then fail g "id %d unanswered" (base + i)) seen

(* The warm-up batch has ids outside the stream regions. *)
let warm g ~responses ~strays =
  let reqs = Gen.warm in
  g.attempted <- g.attempted + List.length reqs;
  List.iter (fun l -> fail g "unmatched response line: %s" (clip l)) strays;
  List.iter
    (fun (req : Gen.request) ->
      match List.assoc_opt req.id responses with
      | None -> fail g "warm-up id %d unanswered" req.id
      | Some line -> check_response g req line)
    reqs;
  if List.length responses <> List.length reqs then
    fail g "warm-up: %d responses to %d requests" (List.length responses)
      (List.length reqs)

(* Admission verdicts depend on every admit and release before them on
   the connection, so they are checked last, replayed through a fresh
   controller in [order]: the ids of the admit/release lines in the order
   they were sent. *)
let admissions g ~workload ~order =
  List.iter
    (fun id ->
      let req = Gen.request ~seed:g.seed workload id in
      let expected =
        match (req.kind, parse req.line) with
        | Gen.Admit _, Serve.Jsonl.Admit a ->
            let p = a.periodic in
            let resp = Core.Synthesis.solve p.Core.Synthesis.request in
            let verdict =
              match Core.Synthesis.periodic_of_response p resp with
              | Ok an -> Rt.Admission.try_admit g.adm ~id:a.task an
              | Error reason -> Rt.Verdict.Rejected reason
            in
            Serve.Jsonl.verdict_to_string ~id:a.id ~task:a.task verdict
        | Gen.Release task, Serve.Jsonl.Release r ->
            let known = Rt.Admission.release g.adm ~id:task in
            Serve.Jsonl.released_to_string ~id:r.id ~task ~known
        | _ -> failwith "expected an admit or a release line"
      in
      match Hashtbl.find_opt g.verdicts id with
      | None -> () (* already counted as unanswered *)
      | Some line ->
          if line <> expected then
            fail g "id %d (admission): response differs from the in-process one" id)
    order
