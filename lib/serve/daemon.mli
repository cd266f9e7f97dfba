(** Always-on streaming front-end: admission with backpressure over a
    Unix-domain socket (or any fd pair), dispatching to a {!Server}.

    {!Jsonl.serve} reads its whole input to EOF before solving anything —
    right for a one-shot batch, wrong for a daemon that must answer while
    clients keep the connection open. The daemon admits request lines
    {e as they arrive}: each well-formed line is offered to the server's
    bounded queue immediately, and the moment no further input is ready
    the queued wave is drained over the pool and its response lines
    stream back, tagged by request id. Clients can hold the connection
    open indefinitely, alternating bursts and reads.

    {2 Backpressure}

    The server's queue is the admission window. When it is full, an
    incoming request is {e shed}, not blocked and not dropped: the daemon
    replies immediately with [{"id": ..., "status": "busy"}] and forgets
    the request. The client owns the retry. Every admitted request is
    answered exactly once, every shed request earns exactly one busy
    line, and every malformed line one error line — ids are never
    dropped. A burst of [k] lines against a queue of capacity [c] yields
    [min k c] solved responses and [max 0 (k - c)] busy lines. Busy and
    error lines are written during admission, so within a burst they
    precede the solved responses; clients must match replies by id, not
    by position.

    {2 Real-time admission}

    ["cmd": "admit"] / ["cmd": "release"] lines (see {!Jsonl}) are served
    {e synchronously}, against a per-connection {!Rt.Admission}
    controller: the in-flight solve wave is flushed, the admit's own
    synthesis job runs cache-fronted ({!Server.guarded_solve}), and the
    verdict line is written before the next line is read — admission
    state is order-dependent, so these lines never ride the batch queue.
    The controller (and every reservation it granted) dies with the
    connection.

    {2 Observability}

    Counters [serve.daemon.requests] (well-formed lines),
    [serve.daemon.busy] (shed), [serve.daemon.served] (solved responses),
    [serve.daemon.malformed], [serve.daemon.connections] and
    [serve.daemon.idle_closed] (sessions reaped by the idle timeout),
    [serve.daemon.peer_closed] (sessions ended because a response write
    found the client gone: [EPIPE] or [ECONNRESET]);
    admission verdicts count in [serve.rt.admitted] / [serve.rt.rejected]
    / [serve.rt.released], and the [serve.rt.utilization_pct] gauge
    tracks the admitted set's total utilization (percent, last
    connection to move wins). Per-request end-to-end latency — admission
    to response write — is recorded in the [serve.daemon.latency_ns]
    {!Obs.Histogram}, so end-of-run summaries and traces report
    p50/p90/p99. *)

type t

(** [create ?lookup ?capacity server] — a daemon front-end over [server].
    [lookup] resolves ["benchmark"] names in request lines, as in
    {!Jsonl.serve}; [capacity] is the RT platform each connection's
    admission controller starts from (default
    {!Rt.Admission.spec_from_env}). *)
val create : ?lookup:Jsonl.lookup -> ?capacity:Rt.Admission.spec -> Server.t -> t

val server : t -> Server.t

(** The process-global [serve.daemon.latency_ns] histogram. *)
val latency_histogram : unit -> Obs.Histogram.t

(** [serve_fd ?idle_timeout t ~input ~output] — run the admission loop
    over a raw fd pair until [input] reaches EOF and every admitted
    request has been answered. [idle_timeout] (seconds, default off;
    raises [Invalid_argument] unless [> 0] and finite) closes a session
    that stays silent that long {e while nothing is in flight} — a
    client mid-burst is never reaped — counting it in
    [serve.daemon.idle_closed]. Returns the number of response lines
    written (solved + busy + error + verdicts). A client that hangs up
    before reading its responses ends only its own session: the failed
    write is counted in [serve.daemon.peer_closed] and [serve_fd]
    returns, provided [SIGPIPE] is ignored (as [hetsched daemon] does),
    so the write fails with [EPIPE] instead of killing the process. This
    is the stdio streaming mode ([--socket -]) and the per-connection
    loop of {!listen}; tests drive it over pipes. *)
val serve_fd :
  ?idle_timeout:float -> t -> input:Unix.file_descr -> output:Unix.file_descr -> int

(** [listen ?connections ?idle_timeout t ~path ()] — bind a Unix-domain
    socket at [path] (unlinking any stale one), accept connections one
    at a time and run {!serve_fd} on each. Stops after [connections]
    connections when given (raises [Invalid_argument] if [< 1]),
    otherwise accepts forever. [idle_timeout] guards each connection —
    with serialized accepts, one silent client would otherwise starve
    the backlog forever. The socket file is removed on exit. Returns the
    total number of response lines written. *)
val listen :
  ?connections:int -> ?idle_timeout:float -> t -> path:string -> unit -> int

(** [call ~path ~input ~output] — client pump: connect to the daemon at
    [path], stream every line of [input] to it while concurrently copying
    response lines to [output] (a second domain feeds the socket so the
    pump cannot deadlock on a full kernel buffer), then half-close and
    read to EOF. Returns the number of response lines received. *)
val call : path:string -> input:in_channel -> output:out_channel -> int
