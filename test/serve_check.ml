(* serve-smoke: end-to-end check that the network service answers the
   same bytes as the batch CLI. Starts `minconn serve` on an ephemeral
   port, drives every fixture query through a socket, diffs each
   response body against the corresponding `solve --queries` block,
   validates GET /metrics, then SIGTERMs the server and requires a
   clean drain (exit 0). Then does the same for `serve --deltas`,
   against `evolve --deltas --queries` on the same fixture.

   Usage: serve_check CLI FIXTURE DELTAS QUERIES OUT METRICS_JSON *)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("serve_check: " ^ msg);
      exit 1)
    fmt

let read_all ic =
  let b = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  let s = read_all ic in
  close_in ic;
  s

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ------------------------------------------- the batch reference run *)

let reference_blocks cmd =
  let ic = Unix.open_process_in cmd in
  let out = read_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> die "reference run failed: %s" cmd);
  (* Per-query blocks sit between "-- query N: ... --" and the
     "minconn: query=N code=C" status line. *)
  let rec go acc cur = function
    | [] -> List.rev acc
    | l :: rest ->
      if starts_with "-- query" l then go acc (Some (Buffer.create 128)) rest
      else if starts_with "minconn: query=" l then (
        match cur with
        | Some b -> go (Buffer.contents b :: acc) None rest
        | None -> go acc None rest)
      else (
        match cur with
        | Some b ->
          Buffer.add_string b l;
          Buffer.add_char b '\n';
          go acc cur rest
        | None -> go acc None rest)
  in
  go [] None (String.split_on_char '\n' out)

let query_lines queries =
  read_file queries |> String.split_on_char '\n' |> List.map String.trim
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

(* --------------------------------------------------------- the server *)

let spawn_server cli serve_args metrics_json =
  let out_r, out_w = Unix.pipe () in
  let pid =
    Unix.create_process cli
      (Array.of_list
         ((cli :: "serve" :: serve_args)
         @ [ "--port"; "0"; "--metrics"; metrics_json ]))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let banner = try input_line ic with End_of_file -> die "server died on start" in
  if not (starts_with "minconn: serving" banner) then
    die "unexpected server banner: %s" banner;
  let port =
    String.split_on_char ' ' banner
    |> List.find_map (fun tok ->
           if starts_with "port=" tok then
             int_of_string_opt (String.sub tok 5 (String.length tok - 5))
           else None)
  in
  match port with
  | Some p -> (pid, ic, p)
  | None -> die "no port in server banner: %s" banner

let connect port =
  let rec go tries =
    match
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      fd
    with
    | fd -> fd
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) when tries > 0 ->
      Unix.sleepf 0.05;
      go (tries - 1)
  in
  go 40

let post fd conn body =
  let req =
    Printf.sprintf "POST /solve HTTP/1.1\r\nHost: s\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  ignore (Unix.write_substring fd req 0 (String.length req) : int);
  match Serve.Http.read_response conn with
  | Ok r -> r
  | Error e -> die "response read failed: %s" (Serve.Http.read_error_name e)

let get fd conn path =
  let req =
    Printf.sprintf "GET %s HTTP/1.1\r\nHost: s\r\nContent-Length: 0\r\n\r\n" path
  in
  ignore (Unix.write_substring fd req 0 (String.length req) : int);
  match Serve.Http.read_response conn with
  | Ok r -> r
  | Error e -> die "response read failed: %s" (Serve.Http.read_error_name e)

(* -------------------------------------------------------------- main *)

(* Serve with [serve_args], answer every query over one connection,
   require each body to equal the [reference] batch run's block, check
   the live and drained metrics, and return the transcript. *)
let check_served cli ~reference ~serve_args lines metrics_json =
  let blocks = reference_blocks reference in
  if List.length blocks <> List.length lines then
    die "%s: parsed %d reference blocks for %d queries" reference
      (List.length blocks) (List.length lines);
  let pid, _banner_ic, port = spawn_server cli serve_args metrics_json in
  let fd = connect port in
  let conn = Serve.Http.conn fd in
  let transcript = Buffer.create 1024 in
  List.iteri
    (fun i (line, expected) ->
      let r = post fd conn line in
      if r.Serve.Http.code <> 200 then
        die "query %d (%s): status %d" (i + 1) line r.Serve.Http.code;
      if r.Serve.Http.resp_body <> expected then
        die
          "query %d (%s): socket answer differs from %s\n\
           --- socket ---\n%s--- batch ---\n%s"
          (i + 1) line reference r.Serve.Http.resp_body expected;
      Printf.bprintf transcript "-- query %d: %s --\n%s" (i + 1) line
        r.Serve.Http.resp_body)
    (List.combine lines blocks);
  (* live metrics document must validate *)
  let m = get fd conn "/metrics" in
  (match Observe.Export.validate_metrics_string m.Serve.Http.resp_body with
  | Ok _ -> ()
  | Error msg -> die "live /metrics invalid: %s" msg);
  Unix.close fd;
  (* graceful drain on SIGTERM, flushing the metrics artifact *)
  Unix.kill pid Sys.sigterm;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> die "server exited %d after SIGTERM" c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> die "server killed by signal %d" s);
  (match Observe.Export.validate_metrics_string (read_file metrics_json) with
  | Ok _ -> ()
  | Error msg -> die "drained metrics artifact invalid: %s" msg);
  Buffer.contents transcript

let () =
  if Array.length Sys.argv < 7 then
    die "usage: serve_check CLI FIXTURE DELTAS QUERIES OUT METRICS_JSON";
  let cli = Sys.argv.(1)
  and fixture = Sys.argv.(2)
  and deltas = Sys.argv.(3)
  and queries = Sys.argv.(4)
  and out_path = Sys.argv.(5)
  and metrics_json = Sys.argv.(6) in
  let lines = query_lines queries in
  let plain =
    check_served cli
      ~reference:(Printf.sprintf "%s solve %s --queries %s" cli fixture queries)
      ~serve_args:[ fixture ] lines metrics_json
  in
  let evolved =
    check_served cli
      ~reference:
        (Printf.sprintf "%s evolve %s --deltas %s --queries %s 2> /dev/null"
           cli fixture deltas queries)
      ~serve_args:[ fixture; "--deltas"; deltas ]
      lines metrics_json
  in
  let oc = open_out out_path in
  output_string oc plain;
  output_string oc "-- served with --deltas --\n";
  output_string oc evolved;
  close_out oc;
  Printf.printf
    "serve_check: %d queries byte-identical over the socket, with and \
     without --deltas\n"
    (List.length lines)
