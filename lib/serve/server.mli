(** Overload-hardened network service over the session engine.

    One listener thread accepts connections; each admitted connection
    gets its own handler thread and its own {!Engine.Session} over the
    shared compiled plan, so concurrent requests never share a
    session's mutable budget or trace. The robustness contract:

    - {b Admission control}: the kernel accept queue holds 64
      connections; beyond [max_inflight] concurrent connections the
      listener answers [503] with [X-Minconn-Error: overloaded]
      immediately — the request is never read, so shedding stays fast
      under any load.
    - {b Deadlines}: every admitted socket carries receive/send
      deadlines (both [io_timeout_ms]); a stalled
      client is reaped with [408] (counted as [serve.reaped]). Every
      query runs under its own budget, capped at
      [request_timeout_ms].
    - {b Graceful degradation}: above [degrade_watermark] in-flight
      connections, queries run on a small fuel budget
      ([pressure_fuel]) so the ladder answers from cheaper rungs;
      responses carry the provenance ([X-Minconn-Rung],
      [X-Minconn-Guarantee], [X-Minconn-Degraded], and
      [X-Minconn-Pressure: high] when shed to that mode).
    - {b Fault-injectable lifecycle}: accept, read, write and handler
      boundaries consult the {!Runtime.Fault} op hooks
      (["serve.accept"], ["serve.read"], ["serve.write"],
      ["serve.handler"]); any injected or real failure is absorbed by
      that connection alone — the listener keeps serving.
    - {b Graceful drain}: {!stop} (wired to SIGTERM/SIGINT by the CLI)
      stops accepting, lets in-flight requests finish until
      [drain_timeout_ms], then force-shuts stragglers (counted as
      [serve.drain_forced]); {!run} then returns so the caller can
      flush metrics and traces.

    Endpoints: [POST /solve] (body = one terminal set, names separated
    by commas/whitespace; answer is byte-identical to the CLI batch
    block for the same query; the names resolve against the schema of
    record's {!Mc_io.Parse.name_index}, so a request costs
    O(|terminals| + |their component|) and nothing sized to the
    schema), [POST /schema/delta] (body = a delta
    file — see {!Mc_io.Parse.deltas_of_string}; patches the compiled
    plan component-by-component and hot-swaps the schema of record
    without dropping inflight requests, answering with
    [X-Minconn-Recompiled-Components] and a per-delta summary; [400]
    with [X-Minconn-Error: bad-delta] leaves the schema untouched),
    [GET /metrics] (minconn-metrics/1 JSON), [GET /trace] (NDJSON
    span stream), [GET /healthz]. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  max_inflight : int;  (** admission cap on concurrent connections *)
  degrade_watermark : int;
      (** in-flight count above which queries run in pressure mode *)
  pressure_fuel : int;  (** fuel for pressure-mode query budgets *)
  request_timeout_ms : int;  (** per-query wall-clock budget *)
  io_timeout_ms : int;  (** socket receive and send deadline *)
  max_body_bytes : int;  (** request body cap (413 beyond it) *)
  degrade : bool;
      (** ladder fall-through on exhaustion (default); [false] turns
          budget exhaustion into [504] *)
  drain_timeout_ms : int;  (** grace period for in-flight work on stop *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?metrics:Observe.Metrics.t ->
  ?trace:Observe.Trace.t ->
  ?names:Mc_io.Parse.name_index ->
  Mc_io.Parse.named_bigraph ->
  (t, string) result
(** Compile the schema once, index its names
    ({!Mc_io.Parse.index}, O(|names|); [names], an index of the given
    schema such as {!Mc_io.Parse.indexed_bigraph_of_string} returns,
    saves building it), bind and listen. Each accepted
    delta publishes a new state whose index the delta parser derived
    from the old one by {!Mc_io.Parse.reindex} — only a side whose
    name array changed is touched, and no published index is mutated,
    so an inflight request keeps resolving against the state it
    started with — and whose plan is patched around the graphs the
    parser's ops produced ({!Engine.Compiled.patch_all}): each op is
    applied once, and the state's schema and plan share one graph.
    [Error msg] on bind/listen failure. Also
    ignores SIGPIPE process-wide: a dead peer must surface as a typed
    write error, never a fatal signal. *)

val port : t -> int
(** The bound port (useful with [config.port = 0]). *)

val inflight : t -> int
val metrics : t -> Observe.Metrics.t

val run : t -> unit
(** Serve until {!stop}, then drain and release the sockets. Runs the
    accept loop in the calling thread. *)

val start : t -> Thread.t
(** [run] on a background thread (tests and the bench harness). *)

val stop : t -> unit
(** Begin graceful drain; idempotent, safe from a signal handler. *)
