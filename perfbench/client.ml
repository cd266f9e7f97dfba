(* The real daemon as a child process, and the single-threaded,
   single-connection driver that talks to it over its stdio pipes.

   [pump] is the one closed loop every phase uses: it keeps [depth]
   requests in flight (1 for the serial phase, 32 for the pipelined one,
   32 for the warm-up batch), matches responses to requests by id and
   times each from the write of its line to the read of its response on
   the monotonic clock. *)

type t = {
  pid : int;
  input : Unix.file_descr;  (* the daemon's stdin, non-blocking *)
  output : Unix.file_descr;  (* the daemon's stdout *)
  errors : Unix.file_descr;  (* the daemon's stderr, read at exit *)
  partial : Buffer.t;  (* an incomplete response line *)
  chunk : Bytes.t;
}

exception Stalled of string

(* Daemons not yet reaped; killed and waited for if the benchmark exits
   early, so no child outlives it. *)
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~exe ~domains =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let args =
    [| exe; "daemon"; "--socket"; "-"; "--domains"; string_of_int domains |]
  in
  let pid = Unix.create_process exe args in_r out_w err_w in
  live := pid :: !live;
  List.iter Unix.close [ in_r; out_w; err_w ];
  Unix.set_nonblock in_w;
  {
    pid;
    input = in_w;
    output = out_r;
    errors = err_r;
    partial = Buffer.create 4096;
    chunk = Bytes.create 65536;
  }

(* Responses start with {"id":<int>, — the driver reads only that much
   of each line while timing; the gate reads the rest afterwards. *)
let id_of_line line =
  let prefix = {|{"id":|} in
  let p = String.length prefix and n = String.length line in
  if n > p && String.sub line 0 p = prefix then begin
    let e = ref p in
    while !e < n && line.[!e] >= '0' && line.[!e] <= '9' do
      incr e
    done;
    if !e > p then int_of_string_opt (String.sub line p (!e - p)) else None
  end
  else None

let stall_timeout = 30.0

(* [pump t ~depth ~until ~next ~on_response ~on_stray] sends lines from
   [next] (None ends the stream) while fewer than [depth] are in flight
   and the clock is before [until], then waits for every outstanding
   response. Returns the number of responses matched to a request. *)
let pump t ~depth ~until ~next ~on_response ~on_stray =
  let inflight : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let unsent : string Queue.t = Queue.create () in
  let head_off = ref 0 in
  let sending = ref true in
  let completed = ref 0 in
  let rec write_some () =
    match Queue.peek_opt unsent with
    | None -> ()
    | Some s -> (
        let len = String.length s - !head_off in
        match Unix.write_substring t.input s !head_off len with
        | n ->
            if n = len then begin
              ignore (Queue.pop unsent);
              head_off := 0;
              write_some ()
            end
            else head_off := !head_off + n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_some ()
        | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
            raise (Stalled "the daemon closed its input"))
  in
  let deliver now line =
    match id_of_line line with
    | Some id when Hashtbl.mem inflight id ->
        let sent = Hashtbl.find inflight id in
        Hashtbl.remove inflight id;
        incr completed;
        on_response ~id ~line ~latency_ns:(now - sent)
    | _ -> on_stray line
  in
  let read_some () =
    match Unix.read t.output t.chunk 0 (Bytes.length t.chunk) with
    | 0 -> raise (Stalled "the daemon closed its output")
    | n ->
        let now = Stats.now_ns () in
        let start = ref 0 in
        let stop = ref false in
        while not !stop do
          match Bytes.index_from_opt t.chunk !start '\n' with
          | Some i when i < n ->
              let line =
                if Buffer.length t.partial = 0 then
                  Bytes.sub_string t.chunk !start (i - !start)
                else begin
                  Buffer.add_subbytes t.partial t.chunk !start (i - !start);
                  let l = Buffer.contents t.partial in
                  Buffer.clear t.partial;
                  l
                end
              in
              deliver now line;
              start := i + 1
          | _ ->
              Buffer.add_subbytes t.partial t.chunk !start (n - !start);
              stop := true
        done
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let fill () =
    while !sending && Hashtbl.length inflight < depth do
      if Stats.now_ns () >= until then sending := false
      else
        match next () with
        | None -> sending := false
        | Some (id, line) ->
            Queue.push (line ^ "\n") unsent;
            Hashtbl.replace inflight id (Stats.now_ns ());
            write_some ()
    done
  in
  let rec loop () =
    fill ();
    if !sending || Hashtbl.length inflight > 0 then begin
      let wfds = if Queue.is_empty unsent then [] else [ t.input ] in
      (match Unix.select [ t.output ] wfds [] stall_timeout with
      | [], [], _ ->
          raise
            (Stalled
               (Printf.sprintf "%d request(s) unanswered after %.0f s"
                  (Hashtbl.length inflight) stall_timeout))
      | r, w, _ ->
          if w <> [] then write_some ();
          if r <> [] then read_some ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  !completed

(* --- /proc ------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* user + system CPU of a process, in clock ticks (USER_HZ, 100 on
   Linux) *)
let cpu_ticks pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex s ')' + 2 in
  match
    String.split_on_char ' ' (String.sub s after (String.length s - after))
  with
  | _state :: rest ->
      (* fields 14 and 15 of stat(5); [rest] starts at field 4 *)
      int_of_string (List.nth rest 10) + int_of_string (List.nth rest 11)
  | [] -> failwith ("unreadable /proc/" ^ string_of_int pid ^ "/stat")

let ticks_per_s = 100.0

(* Ticks the hypervisor gave this machine's CPUs to someone else (the
   steal column of /proc/stat's cpu line). *)
let steal_ticks () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | "cpu" :: _user :: _nice :: _system :: _idle :: _iowait :: _irq :: _softirq
    :: steal :: _ ->
      int_of_string steal
  | _ -> 0

(* The machine's online CPUs: the cpuN lines of /proc/stat, over which
   its cpu line (and so [steal_ticks]) sums. *)
let host_cpus () =
  List.length
    (List.filter
       (fun l ->
         String.length l > 3 && String.starts_with ~prefix:"cpu" l
         && l.[3] >= '0' && l.[3] <= '9')
       (String.split_on_char '\n' (read_file "/proc/stat")))

(* A "Key:   123 kB"-style field of /proc/<proc>/status, where [proc] is
   a pid or "self". *)
let status_field proc key =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = key ->
          Scanf.sscanf_opt (String.sub l (i + 1) (String.length l - i - 1))
            " %d" Fun.id
      | _ -> None)
    (String.split_on_char '\n' (read_file ("/proc/" ^ proc ^ "/status")))

(* The CPUs this process may run on (Cpus_allowed_list in
   /proc/self/status, e.g. "0-3,6"), or None where that is unreadable. *)
let allowed_cpus () =
  let count range =
    match String.split_on_char '-' (String.trim range) with
    | [ a ] -> Option.map (fun _ -> 1) (int_of_string_opt a)
    | [ a; b ] ->
        Option.bind (int_of_string_opt a) (fun a ->
            Option.map (fun b -> b - a + 1) (int_of_string_opt b))
    | _ -> None
  in
  match read_file "/proc/self/status" with
  | exception Sys_error _ -> None
  | text ->
      List.find_map
        (fun l ->
          let key = "Cpus_allowed_list:" in
          if String.starts_with ~prefix:key l then
            let ranges =
              String.split_on_char ','
                (String.sub l (String.length key) (String.length l - String.length key))
            in
            List.fold_left
              (fun acc r -> Option.bind acc (fun n -> Option.map (( + ) n) (count r)))
              (Some 0) ranges
          else None)
        (String.split_on_char '\n' text)

(* --- shutdown ---------------------------------------------------------- *)

type summary = {
  hits : int;
  misses : int;
  evictions : int;
  drains : int;  (* serve.drains: solve waves *)
  submitted : int;  (* serve.requests: solves that entered a wave *)
}

let parse_summary text =
  let lines = String.split_on_char '\n' text in
  (* the tail lists every non-zero serve.* counter as "  name: value" *)
  let counter name =
    let prefix = "  " ^ name ^ ": " in
    let p = String.length prefix in
    Option.value ~default:0
      (List.find_map
         (fun l ->
           if String.starts_with ~prefix l then
             int_of_string_opt (String.sub l p (String.length l - p))
           else None)
         lines)
  in
  let hits, misses, evictions =
    Option.value ~default:(0, 0, 0)
      (List.find_map
         (fun l ->
           Scanf.sscanf_opt l "cache: %d hit(s), %d miss(es), %d eviction(s)"
             (fun h m e -> (h, m, e)))
         lines)
  in
  {
    hits;
    misses;
    evictions;
    drains = counter "serve.drains";
    submitted = counter "serve.requests";
  }

let read_fd fd =
  let b = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents b

(* Close the daemon's input, let it answer what is left and print its
   exit summary, then reap it. *)
let finish t =
  Unix.close t.input;
  let text = read_fd t.errors in
  ignore (Unix.waitpid [] t.pid);
  live := List.filter (( <> ) t.pid) !live;
  Unix.close t.output;
  Unix.close t.errors;
  parse_summary text
