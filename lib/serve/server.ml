module Session = Engine.Session
module Compiled = Engine.Compiled
module Budget = Runtime.Budget
module Errors = Runtime.Errors
module Degrade = Runtime.Degrade
module Fault = Runtime.Fault
module Parse = Mc_io.Parse
module Metrics = Observe.Metrics
module Trace = Observe.Trace
module Export = Observe.Export

type config = {
  host : string;
  port : int;
  max_inflight : int;
  degrade_watermark : int;
  pressure_fuel : int;
  request_timeout_ms : int;
  io_timeout_ms : int;
  max_body_bytes : int;
  degrade : bool;
  drain_timeout_ms : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    max_inflight = 32;
    degrade_watermark = 24;
    pressure_fuel = 64;
    request_timeout_ms = 5_000;
    io_timeout_ms = 10_000;
    max_body_bytes = 64 * 1024;
    degrade = true;
    drain_timeout_ms = 2_000;
  }

(* The schema of record. Immutable as a value — a delta builds a new
   state (its name index by [Parse.reindex], which never mutates the
   parent's) and swaps the cell, so an inflight request keeps
   resolving and answering against the state it started with while
   new requests pick up the evolved one at their next dispatch. *)
type plan_state = {
  nb : Parse.named_bigraph;
  names : Parse.name_index;
  compiled : Compiled.t;
}

type t = {
  cfg : config;
  state : plan_state Atomic.t;
  delta_lock : Mutex.t;  (* serializes /schema/delta writers *)
  metrics : Metrics.t;
  trace : Trace.t;
  trace_lock : Mutex.t;
  lfd : Unix.file_descr;
  bound_port : int;
  inflight : int Atomic.t;
  conn_seq : int Atomic.t;
  stopping : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  conns : (int, Unix.file_descr) Hashtbl.t;  (* live handler fds *)
  conns_lock : Mutex.t;
  c_accepted : Metrics.counter;
  c_shed : Metrics.counter;
  c_reaped : Metrics.counter;
  c_requests : Metrics.counter;
  c_degraded : Metrics.counter;
  c_errors : Metrics.counter;
  c_epipe : Metrics.counter;
  c_drain_forced : Metrics.counter;
  c_deltas : Metrics.counter;
  h_latency : Metrics.histogram;
}

let port t = t.bound_port
let inflight t = Atomic.get t.inflight
let metrics t = t.metrics

let latency_bounds_us =
  [| 50.; 100.; 250.; 500.; 1000.; 2500.; 5000.; 25000.; 100000.; 1000000. |]

(* The kernel's accept queue; admission control proper is
   [max_inflight]. *)
let backlog = 64

let create ?(config = default_config) ?(metrics = Metrics.disabled)
    ?(trace = Trace.disabled) ?names nb =
  (* A peer that hangs up mid-response must surface as EPIPE on the
     write, not as a fatal signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let compiled = Compiled.compile ~trace ~metrics nb.Parse.graph in
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | lfd -> (
    match
      Unix.setsockopt lfd Unix.SO_REUSEADDR true;
      Unix.bind lfd
        (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
      Unix.listen lfd backlog;
      match Unix.getsockname lfd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> config.port
    with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      Error (config.host ^ ": " ^ Unix.error_message e)
    | exception Failure msg ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      Error (config.host ^ ": " ^ msg)
    | bound_port ->
      let wake_r, wake_w = Unix.pipe () in
      Ok
        {
          cfg = config;
          state =
            Atomic.make
              {
                nb;
                names =
                  (match names with Some ix -> ix | None -> Parse.index nb);
                compiled;
              };
          delta_lock = Mutex.create ();
          metrics;
          trace;
          trace_lock = Mutex.create ();
          lfd;
          bound_port;
          inflight = Atomic.make 0;
          conn_seq = Atomic.make 0;
          stopping = Atomic.make false;
          wake_r;
          wake_w;
          conns = Hashtbl.create 64;
          conns_lock = Mutex.create ();
          c_accepted = Metrics.counter metrics "serve.accepted";
          c_shed = Metrics.counter metrics "serve.shed";
          c_reaped = Metrics.counter metrics "serve.reaped";
          c_requests = Metrics.counter metrics "serve.requests";
          c_degraded = Metrics.counter metrics "serve.degraded";
          c_errors = Metrics.counter metrics "serve.errors";
          c_epipe = Metrics.counter metrics "serve.epipe";
          c_drain_forced = Metrics.counter metrics "serve.drain_forced";
          c_deltas = Metrics.counter metrics "serve.deltas";
          h_latency =
            Metrics.histogram metrics ~bounds:latency_bounds_us
              "serve.request_us";
        })

(* ------------------------------------------------------- responses *)

let std_headers =
  [ ("Content-Type", "text/plain; charset=utf-8"); ("Server", "minconn") ]

let text status ?(headers = []) body =
  { Http.status; headers = std_headers @ headers; body }

let overloaded_response ~inflight ~max_inflight =
  text 503
    ~headers:[ ("X-Minconn-Error", "overloaded"); ("Retry-After", "1") ]
    (Printf.sprintf "error: overloaded (inflight=%d max=%d)\n" inflight
       max_inflight)

let split_terminals body =
  String.map (function ',' | '\t' | '\r' | '\n' -> ' ' | c -> c) body
  |> String.split_on_char ' '
  |> List.filter (fun s -> s <> "")

let solve_response t st session body =
  (* Pressure mode: above the watermark, answer from cheaper ladder
     rungs instead of queueing up full-price work. The tiny fuel
     budget makes the ladder itself do the degrading, and the response
     says so in its provenance headers. *)
  let pressured = Atomic.get t.inflight > t.cfg.degrade_watermark in
  (* Made by the session after it has classified the terminals'
     component, so the request timeout meters solving alone. *)
  let make_budget () =
    if pressured then
      Budget.make ~timeout_ms:t.cfg.request_timeout_ms
        ~fuel:t.cfg.pressure_fuel ()
    else Budget.make ~timeout_ms:t.cfg.request_timeout_ms ()
  in
  let pressure_headers =
    if pressured then [ ("X-Minconn-Pressure", "high") ] else []
  in
  match split_terminals body with
  | [] ->
    text 400
      ~headers:(("X-Minconn-Code", "4") :: pressure_headers)
      "error: empty terminal set\n"
  | terminals -> (
    match Parse.resolve st.names terminals with
    | Error n ->
      text 400
        ~headers:(("X-Minconn-Code", "4") :: pressure_headers)
        (Render.unknown_terminal_line n)
    | Ok p -> (
      match Session.query ~make_budget ~degrade:t.cfg.degrade session ~p with
      | Error e ->
        let status =
          match e with
          | Errors.Disconnected_terminals -> 422
          | Errors.Budget_exhausted _ -> 504
          | Errors.Parse_error _ | Errors.Invalid_instance _ -> 400
        in
        text status
          ~headers:
            (("X-Minconn-Code", string_of_int (Errors.exit_code e))
            :: pressure_headers)
          (Render.error_line e)
      | Ok s ->
        let prov = s.Session.provenance in
        let degraded = Degrade.degraded prov in
        if degraded then Metrics.incr t.c_degraded;
        text 200
          ~headers:
            ([
               ("X-Minconn-Code", if degraded then "2" else "0");
               ("X-Minconn-Rung", Errors.rung_name prov.Degrade.ran);
               ( "X-Minconn-Guarantee",
                 Degrade.guarantee_name prov.Degrade.guarantee );
               ("X-Minconn-Degraded", string_of_bool degraded);
             ]
            @ pressure_headers)
          (Render.solution_block st.nb s)))

(* POST /schema/delta: parse the delta file against the current
   schema of record, patch the compiled plan component-by-component
   around the graphs the parser's ops produced, and publish the
   evolved state: each op is applied once, and the new state's schema
   and plan hold the same graph. Writers serialize on [delta_lock];
   readers are lock-free — an inflight request finishes on the plan
   it started with, the next request on its connection picks up the
   swap. *)
let delta_response t body =
  Mutex.lock t.delta_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.delta_lock) @@ fun () ->
  let st = Atomic.get t.state in
  match Parse.delta_steps_of_string ~names:st.names st.nb body with
  | Error e ->
    text 400
      ~headers:
        [
          ("X-Minconn-Error", "bad-delta");
          ("X-Minconn-Code", string_of_int (Errors.exit_code e));
        ]
      (Render.error_line e)
  | Ok (steps, nb, names) ->
    let compiled, stats =
      Compiled.patch_all ~metrics:t.metrics st.compiled steps
    in
    Atomic.set t.state { nb; names; compiled };
    Metrics.incr t.c_deltas;
    let fallback = List.exists (fun s -> s.Compiled.fallback) stats in
    let recompiled =
      List.concat_map (fun s -> s.Compiled.recompiled) stats
      |> List.sort_uniq compare
    in
    let buf = Buffer.create 256 in
    List.iter
      (fun (s : Compiled.delta_stats) ->
        Buffer.add_string buf
          (Printf.sprintf "delta %s: %s\n"
             (Bipartite.Delta.to_string s.Compiled.op)
             (if s.Compiled.noop then "noop"
              else if s.Compiled.fallback then "recompiled all components"
              else
                Printf.sprintf "recompiled %d component%s, reused %d"
                  (List.length s.Compiled.recompiled)
                  (if List.length s.Compiled.recompiled = 1 then "" else "s")
                  s.Compiled.reused)))
      stats;
    Buffer.add_string buf
      (Printf.sprintf "schema evolved: %d deltas, %d components\n"
         (List.length steps)
         (Compiled.n_components compiled));
    text 200
      ~headers:
        [
          ( "X-Minconn-Recompiled-Components",
            if fallback then "all"
            else String.concat "," (List.map string_of_int recompiled) );
          ("X-Minconn-Deltas", string_of_int (List.length steps));
        ]
      (Buffer.contents buf)

let dispatch t st session (req : Http.request) =
  match (req.Http.meth, req.Http.path) with
  | "POST", "/solve" -> solve_response t st session req.Http.body
  | "POST", "/schema/delta" -> delta_response t req.Http.body
  | "GET", "/metrics" -> text 200 (Export.metrics_json t.metrics)
  | "GET", "/trace" ->
    Mutex.lock t.trace_lock;
    let body = Export.trace_ndjson t.trace in
    Mutex.unlock t.trace_lock;
    text 200 body
  | "GET", "/healthz" ->
    text 200
      (Printf.sprintf "%s inflight=%d\n"
         (if Atomic.get t.stopping then "draining" else "ok")
         (Atomic.get t.inflight))
  | _, "/solve" | _, "/schema/delta" ->
    text 405 ~headers:[ ("Allow", "POST") ] "error: use POST\n"
  | _, _ -> text 404 "error: not found\n"

(* The poisoned-handler boundary: whatever a handler raises — injected
   fault or real bug — becomes a 500 on this connection and nothing
   more. The listener and every other connection keep serving. *)
let handle_request t st session req =
  match
    Fault.check_op "serve.handler";
    dispatch t st session req
  with
  | resp -> resp
  | exception e ->
    Metrics.incr t.c_errors;
    let msg =
      match e with
      | Fault.Injected_fault op -> "injected fault: " ^ op
      | e -> Printexc.to_string e
    in
    text 500
      ~headers:[ ("X-Minconn-Error", "internal") ]
      ("error: internal (" ^ msg ^ ")\n")

(* ------------------------------------------------------ connections *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let handle_conn t id fd =
  let conn = Http.conn fd in
  let tfork = Trace.fork t.trace in
  let session =
    ref
      (Session.create ~trace:tfork ~metrics:t.metrics
         (Atomic.get t.state).compiled)
  in
  let finally () =
    close_quiet fd;
    Mutex.lock t.conns_lock;
    Hashtbl.remove t.conns id;
    Mutex.unlock t.conns_lock;
    if Trace.active t.trace then begin
      Mutex.lock t.trace_lock;
      Trace.merge t.trace tfork;
      Mutex.unlock t.trace_lock
    end;
    Atomic.decr t.inflight
  in
  Fun.protect ~finally @@ fun () ->
  let respond_close status headers body =
    ignore
      (Http.write_response conn ~keep_alive:false
         (text status ~headers body)
        : (unit, Http.write_error) result)
  in
  let rec loop () =
    if not (Atomic.get t.stopping) then
      match Http.read_request ~max_body_bytes:t.cfg.max_body_bytes conn with
      | Error Http.Closed -> ()
      | Error Http.Read_timeout ->
        (* Stalled or idle past the deadline: reap it. *)
        Metrics.incr t.c_reaped;
        respond_close 408
          [ ("X-Minconn-Error", "read-timeout") ]
          "error: request read timed out\n"
      | Error (Http.Torn _) ->
        (* Client died mid-request; nobody is left to answer. *)
        Metrics.incr t.c_errors
      | Error (Http.Too_large msg) ->
        respond_close 413
          [ ("X-Minconn-Error", "too-large") ]
          ("error: " ^ msg ^ "\n")
      | Error (Http.Malformed msg) ->
        respond_close 400
          [ ("X-Minconn-Error", "malformed"); ("X-Minconn-Code", "4") ]
          ("error: " ^ msg ^ "\n")
      | Ok req -> (
        Metrics.incr t.c_requests;
        let t0 = Unix.gettimeofday () in
        (* Resync to the published plan: a physical no-op between
           deltas, a field update right after one. The snapshot
           [st] pins one coherent (names, plan) pair for this
           request. *)
        let st = Atomic.get t.state in
        session := Session.with_plan !session st.compiled;
        let resp = handle_request t st !session req in
        Metrics.observe t.h_latency ((Unix.gettimeofday () -. t0) *. 1e6);
        let keep =
          req.Http.keep_alive && resp.Http.status < 500
          && not (Atomic.get t.stopping)
        in
        match Http.write_response conn ~keep_alive:keep resp with
        | Ok () -> if keep then loop ()
        | Error Http.Peer_closed -> Metrics.incr t.c_epipe
        | Error Http.Write_timeout -> Metrics.incr t.c_reaped
        | Error (Http.Write_failed _) -> Metrics.incr t.c_errors)
  in
  loop ()

(* ------------------------------------------------------ accept loop *)

(* Shedding never reads the request: the 503 goes out the moment the
   connection is admitted past the kernel queue, so the latency of
   "sorry, overloaded" stays flat no matter how slow the solver is. *)
let shed t fd =
  Metrics.incr t.c_shed;
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 0.1
   with Unix.Unix_error _ -> ());
  ignore
    (Http.write_response (Http.conn fd) ~keep_alive:false
       (overloaded_response ~inflight:(Atomic.get t.inflight)
          ~max_inflight:t.cfg.max_inflight)
      : (unit, Http.write_error) result);
  close_quiet fd

let accept_one t =
  match
    Fault.check_op "serve.accept";
    Unix.accept t.lfd
  with
  | exception Fault.Injected_fault _ ->
    (* A poisoned accept costs one loop turn, never the listener; the
       pending connection stays queued for the next turn. *)
    Metrics.incr t.c_errors
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
    -> ()
  | exception Unix.Unix_error (_, _, _) ->
    (* EMFILE and friends: count it and back off instead of spinning. *)
    Metrics.incr t.c_errors;
    Thread.delay 0.01
  | fd, _addr ->
    Metrics.incr t.c_accepted;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    if Atomic.get t.stopping then close_quiet fd
    else if Atomic.get t.inflight >= t.cfg.max_inflight then shed t fd
    else begin
      (try
         let deadline = float_of_int t.cfg.io_timeout_ms /. 1000. in
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO deadline;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO deadline
       with Unix.Unix_error _ -> ());
      Atomic.incr t.inflight;
      let id = Atomic.fetch_and_add t.conn_seq 1 in
      Mutex.lock t.conns_lock;
      Hashtbl.replace t.conns id fd;
      Mutex.unlock t.conns_lock;
      ignore (Thread.create (fun () -> handle_conn t id fd) () : Thread.t)
    end

let drain t =
  close_quiet t.lfd;
  let deadline =
    Unix.gettimeofday () +. (float_of_int t.cfg.drain_timeout_ms /. 1000.)
  in
  while Atomic.get t.inflight > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  if Atomic.get t.inflight > 0 then begin
    (* Stragglers past the grace period: shut their sockets so blocked
       reads and writes fail typed and the handlers unwind through
       their normal cleanup. *)
    Mutex.lock t.conns_lock;
    Hashtbl.iter
      (fun _ fd ->
        Metrics.incr t.c_drain_forced;
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.conns;
    Mutex.unlock t.conns_lock;
    let hard = Unix.gettimeofday () +. 1.0 in
    while Atomic.get t.inflight > 0 && Unix.gettimeofday () < hard do
      Thread.delay 0.005
    done
  end

let run t =
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select [ t.lfd; t.wake_r ] [] [] 0.5 with
      | ready, _, _ ->
        if List.mem t.wake_r ready then begin
          let b = Bytes.create 16 in
          try ignore (Unix.read t.wake_r b 0 16 : int)
          with Unix.Unix_error _ -> ()
        end
        else if List.mem t.lfd ready then accept_one t
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  drain t;
  close_quiet t.wake_r;
  close_quiet t.wake_w

let start t = Thread.create run t

let stop t =
  if not (Atomic.exchange t.stopping true) then
    try ignore (Unix.write_substring t.wake_w "x" 0 1 : int)
    with Unix.Unix_error _ -> ()
