(* The bipartite parser as it stood before the offset cursor: a list
   tokenizer that copies every token out of the text, a line-by-line
   directive pass, and a name table per side. Kept as the oracle for
   the differential test of [Mc_io.Parse.bigraph_of_string]. It knows
   only '\n' as a line end, so a '\r' before it is part of the line,
   and an [edge] line of the wrong arity is an unknown directive. *)

let max_input_bytes = Mc_io.Parse.max_input_bytes
let max_line_bytes = Mc_io.Parse.max_line_bytes

let error line col msg = Error (Runtime.Errors.Parse_error { line; col; msg })

let err line col fmt = Printf.ksprintf (error line col) fmt

(* Both caps, checked before tokenization: the total, then the first
   line over the line cap. *)
let oversized text =
  let n = String.length text in
  if n > max_input_bytes then
    Some (err 0 0 "input exceeds %d bytes (%d)" max_input_bytes n)
  else begin
    let bad = ref None in
    let line = ref 1 and start = ref 0 and i = ref 0 in
    while !bad = None && !i <= n do
      if !i = n || text.[!i] = '\n' then begin
        if !i - !start > max_line_bytes then
          bad :=
            Some
              (err !line 0 "line exceeds %d bytes (%d)" max_line_bytes
                 (!i - !start));
        incr line;
        start := !i + 1
      end;
      incr i
    done;
    !bad
  end

(* [(lineno, cols, tokens)] per line with a token, [cols] 1-based and
   parallel to [tokens]. *)
let tokenize text =
  let n = String.length text in
  let blank c = c = ' ' || c = '\t' in
  let rec lines acc lineno start =
    if start > n then List.rev acc
    else begin
      let eol =
        match String.index_from_opt text start '\n' with
        | Some k -> k
        | None -> n
      in
      let rec content_end j =
        if j >= eol || text.[j] = '#' then j else content_end (j + 1)
      in
      let stop = content_end start in
      let rec scan j cols toks =
        if j >= stop then (List.rev cols, List.rev toks)
        else if blank text.[j] then scan (j + 1) cols toks
        else begin
          let k = ref j in
          while !k < stop && not (blank text.[!k]) do
            incr k
          done;
          scan !k ((j - start + 1) :: cols) (String.sub text j (!k - j) :: toks)
        end
      in
      let acc =
        match scan start [] [] with
        | [], _ -> acc
        | cols, toks -> (lineno, cols, toks) :: acc
      in
      lines acc (lineno + 1) (eol + 1)
    end
  in
  lines [] 1 0

let col_at cols k = match List.nth_opt cols k with Some c -> c | None -> 0

(* Position of each name's first occurrence. *)
let table names =
  let t = Hashtbl.create (2 * Array.length names + 1) in
  Array.iteri
    (fun i s -> if not (Hashtbl.mem t s) then Hashtbl.add t s i)
    names;
  t

let parse text =
  match tokenize text with
  | [] -> err 0 0 "empty input (expected 'bipartite' header)"
  | (i, cs, toks) :: lines -> (
    if toks <> [ "bipartite" ] then
      err i (col_at cs 0) "expected a single 'bipartite' header line"
    else
      let left = ref [] and right = ref [] and edges = ref [] in
      let rec consume = function
        | [] -> Ok ()
        | (i, cs, "left" :: names) :: rest ->
          left := List.rev_append names !left;
          if names = [] then err i (col_at cs 0) "'left' line with no names"
          else consume rest
        | (i, cs, "right" :: names) :: rest ->
          right := List.rev_append names !right;
          if names = [] then err i (col_at cs 0) "'right' line with no names"
          else consume rest
        | (i, cs, [ "edge"; a; b ]) :: rest ->
          edges := (i, cs, a, b) :: !edges;
          consume rest
        | (i, cs, t :: _) :: _ -> err i (col_at cs 0) "unknown directive '%s'" t
        | (i, _, []) :: _ -> err i 0 "empty line slipped through"
      in
      match consume lines with
      | Error e -> Error e
      | Ok () ->
        let left_names = Array.of_list (List.rev !left) in
        let right_names = Array.of_list (List.rev !right) in
        let lt = table left_names and rt = table right_names in
        if
          Hashtbl.length lt <> Array.length left_names
          || Hashtbl.length rt <> Array.length right_names
          || Array.exists (Hashtbl.mem lt) right_names
        then err 0 0 "duplicate node name"
        else
          let rec resolve acc = function
            | [] -> Ok (List.rev acc)
            | (i, cs, a, b) :: rest -> (
              match (Hashtbl.find_opt lt a, Hashtbl.find_opt rt b) with
              | None, _ -> err i (col_at cs 1) "unknown left node '%s'" a
              | _, None -> err i (col_at cs 2) "unknown right node '%s'" b
              | Some la, Some rb -> resolve ((la, rb) :: acc) rest)
          in
          Result.map
            (fun edges ->
              {
                Mc_io.Parse.graph =
                  Bipartite.Bigraph.of_edges ~nl:(Array.length left_names)
                    ~nr:(Array.length right_names) edges;
                left_names;
                right_names;
              })
            (resolve [] (List.rev !edges)))

let bigraph_of_string text =
  match oversized text with Some e -> e | None -> parse text
