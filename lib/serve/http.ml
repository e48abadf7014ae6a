module Fault = Runtime.Fault

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
  keep_alive : bool;
}

let header req name = List.assoc_opt (String.lowercase_ascii name) req.headers

type read_error =
  | Closed
  | Read_timeout
  | Torn of string
  | Too_large of string
  | Malformed of string

type write_error = Peer_closed | Write_timeout | Write_failed of string

let read_error_name = function
  | Closed -> "closed"
  | Read_timeout -> "read-timeout"
  | Torn _ -> "torn"
  | Too_large _ -> "too-large"
  | Malformed _ -> "malformed"

let write_error_name = function
  | Peer_closed -> "peer-closed"
  | Write_timeout -> "write-timeout"
  | Write_failed _ -> "write-failed"

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable pending : string;  (* read but not yet consumed *)
}

let conn fd = { fd; chunk = Bytes.create 8192; pending = "" }

exception Fail of read_error

(* One read(2) appended to [pending]; [false] on EOF. Timeouts surface
   as EAGAIN/EWOULDBLOCK because the server arms SO_RCVTIMEO instead of
   juggling select sets per connection. *)
let refill c =
  match
    Fault.check_op "serve.read";
    Unix.read c.fd c.chunk 0 (Bytes.length c.chunk)
  with
  | 0 -> false
  | n ->
    c.pending <- c.pending ^ Bytes.sub_string c.chunk 0 n;
    true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    raise (Fail Read_timeout)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error (e, _, _) ->
    raise (Fail (Torn (Unix.error_message e)))
  | exception Fault.Injected_fault op ->
    raise (Fail (Torn ("injected fault: " ^ op)))

(* Position of the blank line ending the head: [Some (head_end,
   body_start)] accepting both CRLF and bare-LF line endings. *)
let rec find_head s i =
  let n = String.length s in
  if i >= n then None
  else if s.[i] <> '\n' then find_head s (i + 1)
  else if i + 1 < n && s.[i + 1] = '\n' then Some (i, i + 2)
  else if i + 2 < n && s.[i + 1] = '\r' && s.[i + 2] = '\n' then Some (i, i + 3)
  else find_head s (i + 1)

let strip_cr l =
  let n = String.length l in
  if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l

(* One framed message off the connection: first line, lowercased
   headers, Content-Length body. Shared by the server's request reader
   and the client-side response reader the tests and bench use. *)
let read_message ~max_head_bytes ~max_body_bytes c =
  let rec head_loop () =
    match find_head c.pending 0 with
    | Some hb -> hb
    | None ->
      if String.length c.pending > max_head_bytes then
        raise
          (Fail
             (Too_large
                (Printf.sprintf "request head exceeds %d bytes" max_head_bytes)));
      if refill c then head_loop ()
      else if c.pending = "" then raise (Fail Closed)
      else raise (Fail (Torn "eof mid-request"))
  in
  let head_end, body_start = head_loop () in
  let lines =
    String.sub c.pending 0 head_end
    |> String.split_on_char '\n'
    |> List.map strip_cr
  in
  let first_line, header_lines =
    match lines with
    | [] -> raise (Fail (Malformed "empty message"))
    | r :: hs -> (r, hs)
  in
  let headers =
    List.filter_map
      (fun l ->
        if l = "" then None
        else
          match String.index_opt l ':' with
          | None -> raise (Fail (Malformed ("bad header: " ^ l)))
          | Some i ->
            Some
              ( String.lowercase_ascii (String.sub l 0 i),
                String.trim (String.sub l (i + 1) (String.length l - i - 1)) ))
      header_lines
  in
  let content_length =
    match List.assoc_opt "content-length" headers with
    | None -> 0
    | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> n
      | _ -> raise (Fail (Malformed ("bad content-length: " ^ v))))
  in
  (* Reject on the declaration, before reading a single body byte: a
     hostile client never makes the server buffer the oversize. *)
  if content_length > max_body_bytes then
    raise
      (Fail
         (Too_large
            (Printf.sprintf "body of %d bytes exceeds cap %d" content_length
               max_body_bytes)));
  let rec body_loop () =
    if String.length c.pending - body_start < content_length then
      if refill c then body_loop () else raise (Fail (Torn "eof mid-body"))
  in
  body_loop ();
  let body = String.sub c.pending body_start content_length in
  let consumed = body_start + content_length in
  c.pending <-
    String.sub c.pending consumed (String.length c.pending - consumed);
  (first_line, headers, body)

let read_request ?(max_head_bytes = 16 * 1024) ?(max_body_bytes = 64 * 1024) c
    =
  try
    let reqline, headers, body =
      read_message ~max_head_bytes ~max_body_bytes c
    in
    let meth, path, version =
      match
        String.split_on_char ' ' reqline |> List.filter (fun s -> s <> "")
      with
      | [ m; p; v ] -> (m, p, v)
      | _ -> raise (Fail (Malformed ("bad request line: " ^ reqline)))
    in
    if version <> "HTTP/1.1" && version <> "HTTP/1.0" then
      raise (Fail (Malformed ("unsupported version: " ^ version)));
    let keep_alive =
      match
        ( version,
          Option.map String.lowercase_ascii
            (List.assoc_opt "connection" headers) )
      with
      | "HTTP/1.1", Some "close" -> false
      | "HTTP/1.1", _ -> true
      | _, Some "keep-alive" -> true
      | _, _ -> false
    in
    Ok { meth; path; headers; body; keep_alive }
  with Fail e -> Error e

type client_response = {
  code : int;
  resp_headers : (string * string) list;
  resp_body : string;
}

let resp_header r name = List.assoc_opt (String.lowercase_ascii name) r.resp_headers

let read_response c =
  try
    let status_line, resp_headers, resp_body =
      read_message ~max_head_bytes:(64 * 1024) ~max_body_bytes:(16 * 1024 * 1024)
        c
    in
    let code =
      match String.split_on_char ' ' status_line with
      | version :: code :: _
        when String.length version >= 5 && String.sub version 0 5 = "HTTP/" -> (
        match int_of_string_opt code with
        | Some n -> n
        | None -> raise (Fail (Malformed ("bad status line: " ^ status_line))))
      | _ -> raise (Fail (Malformed ("bad status line: " ^ status_line)))
    in
    Ok { code; resp_headers; resp_body }
  with Fail e -> Error e

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

let reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 422 -> "Unprocessable Content"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Status"

exception Wfail of write_error

let write_all c s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    match
      Fault.check_op "serve.write";
      Unix.write_substring c.fd s !off (len - !off)
    with
    | n -> off := !off + n
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      raise (Wfail Peer_closed)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      raise (Wfail Write_timeout)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (e, _, _) ->
      raise (Wfail (Write_failed (Unix.error_message e)))
    | exception Fault.Injected_fault op ->
      raise (Wfail (Write_failed ("injected fault: " ^ op)))
  done

let write_response c ~keep_alive (r : response) =
  let b = Buffer.create (256 + String.length r.body) in
  (* [Buffer.add_string] only: one response per request, no format
     interpretation on the hot path. *)
  let header k v =
    Buffer.add_string b k;
    Buffer.add_string b ": ";
    Buffer.add_string b v;
    Buffer.add_string b "\r\n"
  in
  Buffer.add_string b "HTTP/1.1 ";
  Buffer.add_string b (string_of_int r.status);
  Buffer.add_char b ' ';
  Buffer.add_string b (reason r.status);
  Buffer.add_string b "\r\n";
  List.iter (fun (k, v) -> header k v) r.headers;
  header "Content-Length" (string_of_int (String.length r.body));
  header "Connection" (if keep_alive then "keep-alive" else "close");
  Buffer.add_string b "\r\n";
  Buffer.add_string b r.body;
  try
    write_all c (Buffer.contents b);
    Ok ()
  with Wfail e -> Error e
