let requests = Obs.Counter.make "serve.daemon.requests"
let busy = Obs.Counter.make "serve.daemon.busy"
let served = Obs.Counter.make "serve.daemon.served"
let connections = Obs.Counter.make "serve.daemon.connections"
let malformed = Obs.Counter.make "serve.daemon.malformed"
let idle_closed = Obs.Counter.make "serve.daemon.idle_closed"
let peer_closed = Obs.Counter.make "serve.daemon.peer_closed"
let rt_admitted = Obs.Counter.make "serve.rt.admitted"
let rt_rejected = Obs.Counter.make "serve.rt.rejected"
let rt_released = Obs.Counter.make "serve.rt.released"
let rt_utilization = Obs.Gauge.make "serve.rt.utilization_pct"
let latency = Obs.Histogram.make "serve.daemon.latency_ns"
let latency_histogram () = latency

type t = {
  server : Server.t;
  lookup : Jsonl.lookup option;
  capacity : Rt.Admission.spec option;
}

let create ?lookup ?capacity server = { server; lookup; capacity }
let server t = t.server

let now_ns () = Unix.gettimeofday () *. 1e9

(* --- raw-fd line reader ---------------------------------------------- *)

(* The admission loop needs to distinguish "no line ready right now" from
   "no line ever again": input that is merely slow must not stall the
   drain of already-admitted requests. in_channel cannot express that, so
   lines are assembled by hand from Unix.read with a zero-timeout select
   probing readability. *)

type read_result = Line of string | Would_block | Eof | Idle

(* Bytes accumulate in a growable window [start, start + len) of [buf];
   [scanned] bytes at the head of the window are known newline-free, so a
   long line fragmented over many chunks is scanned once per byte, not
   once per chunk — appending, scanning and consuming are all amortized
   O(bytes), where the old string accumulator ([acc <- acc ^ chunk] plus
   a from-zero [String.index_opt] per chunk) was quadratic. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable len : int;
  mutable scanned : int;  (* head bytes of the window already scanned *)
  mutable at_eof : bool;
  chunk : Bytes.t;
}

let reader fd =
  {
    fd;
    buf = Bytes.create 4096;
    start = 0;
    len = 0;
    scanned = 0;
    at_eof = false;
    chunk = Bytes.create 4096;
  }

(* Make room for [n] more bytes: compact to offset 0 when the tail is
   full, doubling the buffer only when the data itself outgrows it. *)
let append r src n =
  if r.start + r.len + n > Bytes.length r.buf then begin
    if r.len + n > Bytes.length r.buf then begin
      let cap = ref (Bytes.length r.buf) in
      while r.len + n > !cap do
        cap := !cap * 2
      done;
      let grown = Bytes.create !cap in
      Bytes.blit r.buf r.start grown 0 r.len;
      r.buf <- grown
    end
    else Bytes.blit r.buf r.start r.buf 0 r.len;
    r.start <- 0
  end;
  Bytes.blit src 0 r.buf (r.start + r.len) n;
  r.len <- r.len + n

(* Next newline in the unscanned tail of the window, as an offset from
   [start]; remembers how far it looked on a miss. *)
let find_newline r =
  let i = ref (r.start + r.scanned) in
  let stop = r.start + r.len in
  while !i < stop && Bytes.get r.buf !i <> '\n' do
    incr i
  done;
  if !i < stop then Some (!i - r.start)
  else begin
    r.scanned <- r.len;
    None
  end

let take_buffered r i =
  let line = Bytes.sub_string r.buf r.start i in
  r.start <- r.start + i + 1;
  r.len <- r.len - i - 1;
  r.scanned <- 0;
  line

let rec readable_now fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | [ _ ], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> readable_now fd

let rec read_chunk r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> r.at_eof <- true
  | n -> append r r.chunk n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_chunk r
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      r.at_eof <- true

(* A blocking wait bounded by [timeout] seconds (negative = forever). The
   remaining wait is recomputed from a clock deadline on every EINTR —
   restarting the full timeout instead would let a signal storm with a
   sub-timeout interval keep an idle session alive indefinitely. (Unix
   does not expose the monotonic clock; the wall clock is the closest
   available approximation, and a clock step only shifts one wait.) *)
let wait_readable fd ~timeout =
  if timeout < 0.0 then
    let rec forever () =
      match Unix.select [ fd ] [] [] (-1.0) with
      | [ _ ], _, _ -> true
      | _ -> false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> forever ()
    in
    forever ()
  else begin
    let deadline = Unix.gettimeofday () +. timeout in
    let rec wait remaining =
      (* a final zero-timeout probe so data racing the deadline wins *)
      if remaining <= 0.0 then readable_now fd
      else
        match Unix.select [ fd ] [] [] remaining with
        | [ _ ], _, _ -> true
        | _ -> false
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
            wait (deadline -. Unix.gettimeofday ())
    in
    wait timeout
  end

(* [take_line r ~block ~idle_timeout]: the next full line if one is
   buffered or can be obtained without waiting; [Would_block] when
   [block] is false and the peer has sent nothing further yet; [Idle]
   when a blocking wait outlasts [idle_timeout] seconds of silence; [Eof]
   once the peer is done (a final unterminated line is still delivered
   first). *)
let rec take_line r ~block ~idle_timeout =
  match find_newline r with
  | Some i -> Line (take_buffered r i)
  | None ->
      if r.at_eof then
        if r.len = 0 then Eof
        else begin
          let line = Bytes.sub_string r.buf r.start r.len in
          r.start <- 0;
          r.len <- 0;
          r.scanned <- 0;
          Line line
        end
      else if block then
        let timeout = Option.value idle_timeout ~default:(-1.0) in
        if wait_readable r.fd ~timeout then begin
          read_chunk r;
          take_line r ~block ~idle_timeout
        end
        else Idle
      else if readable_now r.fd then begin
        read_chunk r;
        take_line r ~block ~idle_timeout
      end
      else Would_block

(* --- writes ----------------------------------------------------------- *)

(* The peer hung up: nobody is left to read what this session writes. *)
exception Peer_closed

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise Peer_closed

(* One write per line: lines under PIPE_BUF land atomically in pipes, so
   interleaved readers never see torn responses. *)
let emit fd line = write_all fd (line ^ "\n") 0 (String.length line + 1)

(* --- admission loop --------------------------------------------------- *)

(* Policy: admit request lines as fast as they arrive; when the server's
   bounded queue is full, shed the request with a "busy" line instead of
   blocking or dropping it. Drain — and stream the responses back — the
   moment input is not immediately available, and block for more input
   only when nothing is in flight. Within one burst this yields exactly
   [queue_capacity] solved responses and a busy line per overflow. *)
let serve_fd ?idle_timeout t ~input ~output =
  (match idle_timeout with
  | Some s when not (Float.is_finite s && s > 0.0) ->
      invalid_arg
        (Printf.sprintf "Serve.Daemon.serve_fd: idle timeout %g must be > 0" s)
  | _ -> ());
  Obs.Counter.incr connections;
  let r = reader input in
  let pending : (Obs.Json.t * float) Queue.t = Queue.create () in
  let adm = Rt.Admission.create ?capacity:t.capacity () in
  let written = ref 0 in
  let send line =
    emit output line;
    incr written
  in
  let flush_pending () =
    if not (Queue.is_empty pending) then begin
      let responses = Server.drain t.server in
      List.iter
        (fun resp ->
          let id, t0 = Queue.pop pending in
          Obs.Histogram.observe latency (now_ns () -. t0);
          Obs.Counter.incr served;
          send (Jsonl.response_to_string ~id resp))
        responses;
      if not (Queue.is_empty pending) then
        invalid_arg "Serve.Daemon.serve_fd: drain/pending mismatch"
    end
  in
  (* Admission verdicts are synchronous and order-dependent: flush the
     in-flight solve wave first (keeping the bounded queue whole for
     plain solves), then solve the admit's own job cache-fronted on this
     domain and apply the controller. *)
  let admit ~id ~task (periodic : Core.Synthesis.periodic) =
    flush_pending ();
    let t0 = now_ns () in
    let resp = Server.guarded_solve t.server periodic.Core.Synthesis.request in
    let verdict =
      match Core.Synthesis.periodic_of_response periodic resp with
      | Stdlib.Ok an -> Rt.Admission.try_admit adm ~id:task an
      | Stdlib.Error reason -> Rt.Verdict.Rejected reason
    in
    (match verdict with
    | Rt.Verdict.Admitted _ -> Obs.Counter.incr rt_admitted
    | Rt.Verdict.Rejected _ -> Obs.Counter.incr rt_rejected);
    Obs.Gauge.set rt_utilization
      (int_of_float (Rt.Admission.utilization adm *. 100.0));
    Obs.Histogram.observe latency (now_ns () -. t0);
    send (Jsonl.verdict_to_string ~id ~task verdict)
  in
  let release ~id ~task =
    let known = Rt.Admission.release adm ~id:task in
    if known then begin
      Obs.Counter.incr rt_released;
      Obs.Gauge.set rt_utilization
        (int_of_float (Rt.Admission.utilization adm *. 100.0))
    end;
    send (Jsonl.released_to_string ~id ~task ~known)
  in
  let line_no = ref 0 in
  let rec loop () =
    match take_line r ~block:(Queue.is_empty pending) ~idle_timeout with
    | Line s ->
        incr line_no;
        if String.trim s <> "" then begin
          match Jsonl.line_of_string ?lookup:t.lookup ~line:!line_no s with
          | Error msg ->
              Obs.Counter.incr malformed;
              send (Jsonl.error_to_string ~id:(Obs.Json.Int !line_no) msg)
          | Ok (Jsonl.Solve item) ->
              Obs.Counter.incr requests;
              if Server.try_submit t.server item.Jsonl.request then
                Queue.add (item.Jsonl.id, now_ns ()) pending
              else begin
                Obs.Counter.incr busy;
                send (Jsonl.busy_to_string ~id:item.Jsonl.id)
              end
          | Ok (Jsonl.Admit a) ->
              Obs.Counter.incr requests;
              admit ~id:a.id ~task:a.task a.periodic
          | Ok (Jsonl.Release rel) ->
              Obs.Counter.incr requests;
              release ~id:rel.id ~task:rel.task
        end;
        loop ()
    | Would_block ->
        flush_pending ();
        loop ()
    | Idle ->
        (* only reachable while blocking, i.e. with nothing in flight *)
        Obs.Counter.incr idle_closed
    | Eof -> flush_pending ()
  in
  (* A write to a departed peer ends the session, not the daemon. Its
     requests still queued on the shared server (the failed write was a
     busy, error or release line) are drained and dropped, so the next
     session's drain returns only its own responses. *)
  (try loop ()
   with Peer_closed ->
     Obs.Counter.incr peer_closed;
     if not (Queue.is_empty pending) then ignore (Server.drain t.server));
  !written

(* --- unix-domain socket listener -------------------------------------- *)

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

let listen ?connections:limit ?idle_timeout t ~path () =
  (match limit with
  | Some n when n < 1 ->
      invalid_arg (Printf.sprintf "Serve.Daemon.listen: connections %d < 1" n)
  | _ -> ());
  unlink_quiet path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      unlink_quiet path)
  @@ fun () ->
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  (* Connections are served one at a time: a connection is a batch
     session, and the server's pool is busy solving it anyway. Later
     arrivals queue in the kernel backlog until accept. *)
  let total = ref 0 in
  let rec accept_loop remaining =
    if remaining <> Some 0 then begin
      match Unix.accept sock with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop remaining
      | fd, _ ->
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              total := !total + serve_fd ?idle_timeout t ~input:fd ~output:fd);
          accept_loop (Option.map (fun n -> n - 1) remaining)
    end
  in
  accept_loop limit;
  !total

(* --- client ------------------------------------------------------------ *)

let count_newlines s =
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 s

let call ~path ~input ~output =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect sock (Unix.ADDR_UNIX path);
  (* A separate domain pushes request lines while this one pulls response
     lines, so neither side of the socket can deadlock on a full pipe. *)
  let writer =
    Domain.spawn (fun () ->
        let rec push () =
          match input_line input with
          | line ->
              write_all sock (line ^ "\n") 0 (String.length line + 1);
              push ()
          | exception End_of_file -> Unix.shutdown sock Unix.SHUTDOWN_SEND
        in
        (* the daemon hung up first: stop sending, read what it wrote *)
        try push () with Peer_closed -> ())
  in
  let buf = Bytes.create 4096 in
  let count = ref 0 in
  let rec pull () =
    match Unix.read sock buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        let s = Bytes.sub_string buf 0 n in
        output_string output s;
        count := !count + count_newlines s;
        pull ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> pull ()
  in
  pull ();
  Domain.join writer;
  flush output;
  !count
