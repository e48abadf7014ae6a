open Graphs
open Hypergraphs

type named_bigraph = {
  graph : Bipartite.Bigraph.t;
  left_names : string array;
  right_names : string array;
}

type error = Runtime.Errors.t

let pp_error = Runtime.Errors.pp

(* Hard input caps, checked before tokenization: parsers sit on
   attacker-reachable boundaries (CLI files, server request bodies),
   so unbounded input must become a typed error before it becomes a
   resident list of tokens. The limits are far above any legitimate
   instance file while keeping the worst-case allocation proportional
   to a small constant times the cap. *)
let max_input_bytes = 8 * 1024 * 1024
let max_line_bytes = 64 * 1024

let oversized text =
  let n = String.length text in
  if n > max_input_bytes then
    Some
      (Runtime.Errors.Parse_error
         {
           line = 0;
           col = 0;
           msg =
             Printf.sprintf "input exceeds %d bytes (%d)" max_input_bytes n;
         })
  else begin
    (* One pass for the longest line; no splitting before the check. *)
    let bad = ref None in
    let line = ref 1 and start = ref 0 and i = ref 0 in
    while !bad = None && !i <= n do
      if !i = n || text.[!i] = '\n' then begin
        if !i - !start > max_line_bytes then
          bad :=
            Some
              (Runtime.Errors.Parse_error
                 {
                   line = !line;
                   col = 0;
                   msg =
                     Printf.sprintf "line exceeds %d bytes (%d)"
                       max_line_bytes (!i - !start);
                 });
        incr line;
        start := !i + 1
      end;
      incr i
    done;
    !bad
  end

let guarded parse text =
  match oversized text with Some e -> Error e | None -> parse text

(* Every token carries its 1-based starting column so parse errors can
   point at the offending token, not just its line. A line is
   [(lineno, cols, tokens)] with [cols] parallel to [tokens]. One pass
   over the text; tokens are cut straight out of it. *)
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
      (* A '#' comments out the rest of its line. *)
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

(* Column of the [k]-th token on a line; 0 (column unknown) past the end. *)
let col_at cols k =
  match List.nth_opt cols k with Some c -> c | None -> 0

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let err line col fmt =
  Printf.ksprintf
    (fun msg -> Error (Runtime.Errors.Parse_error { line; col; msg }))
    fmt

let expect_header want = function
  | (_, _, [ h ]) :: rest when h = want -> Ok rest
  | (i, cs, _) :: _ ->
    err i (col_at cs 0) "expected a single '%s' header line" want
  | [] -> err 0 0 "empty input (expected '%s' header)" want

(* A linear scan, for callers that look up a few names per call. *)
let index_of (arr : string array) name =
  let rec go i =
    if i >= Array.length arr then None
    else if String.equal arr.(i) name then Some i
    else go (i + 1)
  in
  go 0

(* One side's name table: open addressing keyed by [Hashtbl.hash] with
   linear probing. A slot holds a 4-byte position plus one (0 marks an
   empty slot) in one flat [Bytes], at load <= 1/2; a hit is confirmed
   with [String.equal] against the side's array. On a repeated name the
   first occurrence wins, as a left-to-right scan finds it, and
   [distinct] falls short of the array's length — which is how the
   bipartite parser detects duplicates within a side. Never mutated
   once built. *)
type side = {
  names : string array;
  slots : Bytes.t;
  mask : int;
  distinct : int;
}

let slot slots h = Int32.to_int (Bytes.get_int32_le slots (4 * h))

let side_index names =
  let n = Array.length names in
  let cap = ref 2 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  let slots = Bytes.make (4 * !cap) '\000' and mask = !cap - 1 in
  let distinct = ref 0 in
  Array.iteri
    (fun i s ->
      let rec probe h =
        match slot slots h with
        | 0 ->
          Bytes.set_int32_le slots (4 * h) (Int32.of_int (i + 1));
          incr distinct
        | k ->
          if not (String.equal names.(k - 1) s) then probe ((h + 1) land mask)
      in
      probe (Hashtbl.hash s land mask))
    names;
  { names; slots; mask; distinct = !distinct }

(* Position of [s] in the side's array, or -1. *)
let find side s =
  let rec probe h =
    match slot side.slots h with
    | 0 -> -1
    | k ->
      if String.equal side.names.(k - 1) s then k - 1
      else probe ((h + 1) land side.mask)
  in
  probe (Hashtbl.hash s land side.mask)

type name_index = { left : side; right : side; nl : int }

let index nb =
  {
    left = side_index nb.left_names;
    right = side_index nb.right_names;
    nl = Bipartite.Bigraph.nl nb.graph;
  }

(* A side whose array is physically the indexed one keeps its table:
   deltas never touch the left names, and edge deltas neither side. *)
let reindex ix nb =
  let keep side names =
    if side.names == names then side else side_index names
  in
  {
    left = keep ix.left nb.left_names;
    right = keep ix.right nb.right_names;
    nl = Bipartite.Bigraph.nl nb.graph;
  }

let resolve ix names =
  let rec go acc = function
    | [] -> Ok acc
    | s :: rest ->
      let i = find ix.left s in
      if i >= 0 then go (Iset.add i acc) rest
      else
        let j = find ix.right s in
        if j >= 0 then go (Iset.add (ix.nl + j) acc) rest else Error s
  in
  go Iset.empty names

(* Linear in the input: each side's names are indexed once in a name
   table, every edge is resolved to flat [src]/[dst] arrays in file
   order (so the first unknown name reports the same position a
   line-by-line scan would), and the graph is built in one
   direct-to-CSR pass. *)
let bigraph_of_string_unguarded text =
  match expect_header "bipartite" (tokenize text) with
  | Error e -> Error e
  | Ok lines ->
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
      | (i, cs, t :: _) :: _ ->
        err i (col_at cs 0) "unknown directive '%s'" t
      | (i, _, []) :: _ -> err i 0 "empty line slipped through"
    in
    (match consume lines with
    | Error e -> Error e
    | Ok () ->
      let left_names = Array.of_list (List.rev !left) in
      let right_names = Array.of_list (List.rev !right) in
      let lidx = side_index left_names and ridx = side_index right_names in
      if
        lidx.distinct <> Array.length left_names
        || ridx.distinct <> Array.length right_names
        || Array.exists (fun s -> find lidx s >= 0) right_names
      then err 0 0 "duplicate node name"
      else begin
        let edges = Array.of_list (List.rev !edges) in
        let m = Array.length edges in
        let src = Array.make m 0 and dst = Array.make m 0 in
        let rec resolve k =
          if k = m then Ok ()
          else
            let i, cs, a, b = edges.(k) in
            let la = find lidx a and rb = find ridx b in
            if la < 0 then err i (col_at cs 1) "unknown left node '%s'" a
            else if rb < 0 then err i (col_at cs 2) "unknown right node '%s'" b
            else begin
              src.(k) <- la;
              dst.(k) <- rb;
              resolve (k + 1)
            end
        in
        match resolve 0 with
        | Error e -> Error e
        | Ok () ->
          let graph =
            Bipartite.Bigraph.of_edge_iter ~nl:(Array.length left_names)
              ~nr:(Array.length right_names) (fun f ->
                for k = 0 to m - 1 do
                  f src.(k) dst.(k)
                done)
          in
          Ok { graph; left_names; right_names }
      end)

let schema_of_string_unguarded text =
  match expect_header "schema" (tokenize text) with
  | Error e -> Error e
  | Ok lines ->
    let rec consume acc = function
      | [] -> Ok (List.rev acc)
      | (i, cs, "relation" :: name :: attrs) :: rest ->
        if attrs = [] then
          err i (col_at cs 1) "relation '%s' has no attributes" name
        else consume ((name, attrs) :: acc) rest
      | (i, cs, t :: _) :: _ ->
        err i (col_at cs 0) "unknown directive '%s'" t
      | (i, _, []) :: _ -> err i 0 "empty line slipped through"
    in
    (match consume [] lines with
    | Error e -> Error e
    | Ok rels -> (
      try Ok (Datamodel.Schema.make rels)
      with Invalid_argument m -> err 0 0 "%s" m))

let hypergraph_of_string_unguarded text =
  match expect_header "hypergraph" (tokenize text) with
  | Error e -> Error e
  | Ok lines ->
    let nodes = ref [] and edges = ref [] in
    let rec consume = function
      | [] -> Ok ()
      | (i, cs, "nodes" :: names) :: rest ->
        nodes := List.rev_append names !nodes;
        if names = [] then err i (col_at cs 0) "'nodes' line with no names"
        else consume rest
      | (i, cs, "edge" :: name :: members) :: rest ->
        if members = [] then err i (col_at cs 1) "edge '%s' is empty" name
        else begin
          (* members start at token index 2; keep their columns paired *)
          edges := (i, name, List.combine (drop 2 cs) members) :: !edges;
          consume rest
        end
      | (i, cs, t :: _) :: _ ->
        err i (col_at cs 0) "unknown directive '%s'" t
      | (i, _, []) :: _ -> err i 0 "empty line slipped through"
    in
    (match consume lines with
    | Error e -> Error e
    | Ok () ->
      let node_names = Array.of_list (List.rev !nodes) in
      let index = side_index node_names in
      let rec build acc = function
        | [] -> Ok (List.rev acc)
        | (i, _, members) :: rest ->
          let rec resolve set = function
            | [] -> Ok set
            | (c, m) :: ms -> (
              match find index m with
              | -1 -> err i c "unknown node '%s'" m
              | v -> resolve (Iset.add v set) ms)
          in
          (match resolve Iset.empty members with
          | Error e -> Error e
          | Ok set -> build (set :: acc) rest)
      in
      match build [] (List.rev !edges) with
      | Error e -> Error e
      | Ok family ->
        let edge_names =
          Array.of_list (List.rev_map (fun (_, n, _) -> n) !edges)
        in
        (try
           Ok
             ( Hypergraph.create ~n_nodes:(Array.length node_names) family,
               node_names,
               edge_names )
         with Invalid_argument m -> err 0 0 "%s" m))

let database_of_string_unguarded ?semantics text =
  match expect_header "database" (tokenize text) with
  | Error e -> Error e
  | Ok lines ->
    let schemas = ref [] and rows = ref [] in
    let rec consume = function
      | [] -> Ok ()
      | (i, cs, "relation" :: name :: attrs) :: rest ->
        if attrs = [] then
          err i (col_at cs 1) "relation '%s' has no attributes" name
        else begin
          schemas := (name, attrs) :: !schemas;
          consume rest
        end
      | (i, cs, "row" :: name :: values) :: rest ->
        rows := (i, col_at cs 1, name, values) :: !rows;
        consume rest
      | (i, cs, t :: _) :: _ ->
        err i (col_at cs 0) "unknown directive '%s'" t
      | (i, _, []) :: _ -> err i 0 "empty line slipped through"
    in
    (match consume lines with
    | Error e -> Error e
    | Ok () ->
      let schemas = List.rev !schemas in
      let rec check_rows = function
        | [] -> Ok ()
        | (i, c, name, values) :: rest -> (
          match List.assoc_opt name schemas with
          | None -> err i c "row for unknown relation '%s'" name
          | Some attrs when List.length attrs <> List.length values ->
            err i c "row arity mismatch for '%s'" name
          | Some _ -> check_rows rest)
      in
      (match check_rows (List.rev !rows) with
      | Error e -> Error e
      | Ok () -> (
        (* Relation.make can also reject (duplicate attributes), so the
           whole construction sits inside the boundary. *)
        try
          let rels =
            List.map
              (fun (name, attrs) ->
                let data =
                  List.rev !rows
                  |> List.filter_map (fun (_, _, n, values) ->
                         if n = name then Some values else None)
                in
                (name, Relalg.Relation.make ?semantics ~attrs data))
              schemas
          in
          Ok (Relalg.Database.make rels)
        with Invalid_argument m -> err 0 0 "%s" m)))

(* Delta files speak names, the engine speaks indices; each line is
   resolved against the schema *as evolved so far*, so a relation
   added three lines up is a legal edge endpoint here and the
   recorded index ops line up exactly with [Delta.apply_all]'s
   sequential semantics. *)
let deltas_of_string_unguarded nb text =
  let module D = Bipartite.Delta in
  match expect_header "deltas" (tokenize text) with
  | Error e -> Error e
  | Ok lines ->
    let remove_at j arr =
      Array.init (Array.length arr - 1) (fun k ->
          arr.(if k < j then k else k + 1))
    in
    let rec consume nb ops = function
      | [] -> Ok (List.rev ops, nb)
      | (i, cs, toks) :: rest ->
        let left c a =
          match index_of nb.left_names a with
          | Some la -> Ok la
          | None -> err i c "unknown left node '%s'" a
        in
        let right c r =
          match index_of nb.right_names r with
          | Some j -> Ok j
          | None -> err i c "unknown relation '%s'" r
        in
        (* Apply as we go: later lines must validate against the
           evolved schema, and an op the engine would reject must die
           here with a line number, not downstream without one. *)
        let step op rename =
          match D.apply nb.graph op with
          | Error msg -> err i (col_at cs 0) "%s" msg
          | Ok graph -> consume (rename { nb with graph }) (op :: ops) rest
        in
        (match toks with
        | [ "+edge"; a; b ] -> (
          match (left (col_at cs 1) a, right (col_at cs 2) b) with
          | Ok la, Ok rb -> step (D.Add_edge (la, rb)) Fun.id
          | (Error _ as e), _ | _, (Error _ as e) -> e)
        | [ "-edge"; a; b ] -> (
          match (left (col_at cs 1) a, right (col_at cs 2) b) with
          | Ok la, Ok rb -> step (D.Remove_edge (la, rb)) Fun.id
          | (Error _ as e), _ | _, (Error _ as e) -> e)
        | "+relation" :: name :: attrs ->
          if
            index_of nb.left_names name <> None
            || index_of nb.right_names name <> None
          then err i (col_at cs 1) "duplicate node name '%s'" name
          else
            let rec resolve set k = function
              | [] -> Ok set
              | a :: more -> (
                match left (col_at cs k) a with
                | Ok la -> resolve (Iset.add la set) (k + 1) more
                | Error e -> Error e)
            in
            (match resolve Iset.empty 2 attrs with
            | Error e -> Error e
            | Ok set ->
              step (D.Add_relation set) (fun nb ->
                  {
                    nb with
                    right_names = Array.append nb.right_names [| name |];
                  }))
        | [ "-relation"; name ] -> (
          match right (col_at cs 1) name with
          | Error e -> Error e
          | Ok j ->
            step (D.Remove_relation j) (fun nb ->
                { nb with right_names = remove_at j nb.right_names }))
        | t :: _ -> err i (col_at cs 0) "unknown delta directive '%s'" t
        | [] -> err i 0 "empty line slipped through")
    in
    consume nb [] lines

let query_of_string_unguarded text =
  let words =
    String.split_on_char ' ' text
    |> List.concat_map (String.split_on_char ',')
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "")
  in
  match words with
  | "connect" :: rest ->
    let rec split_objects acc = function
      | [] -> (List.rev acc, [])
      | "where" :: conds -> (List.rev acc, conds)
      | w :: rest -> split_objects (w :: acc) rest
    in
    let objects, conds = split_objects [] rest in
    if objects = [] then err 1 0 "no objects to connect"
    else
      let rec parse_conds acc = function
        | [] -> Ok (List.rev acc)
        | attr :: "=" :: value :: rest -> (
          match rest with
          | "and" :: more -> parse_conds ((attr, value) :: acc) more
          | [] -> Ok (List.rev ((attr, value) :: acc))
          | w :: _ -> err 1 0 "expected 'and', found '%s'" w)
        | w :: _ -> err 1 0 "malformed condition near '%s'" w
      in
      (match parse_conds [] conds with
      | Error e -> Error e
      | Ok where -> Ok (objects, where))
  | _ -> err 1 0 "queries start with 'connect'"

let bigraph_of_string = guarded bigraph_of_string_unguarded
let schema_of_string = guarded schema_of_string_unguarded
let hypergraph_of_string = guarded hypergraph_of_string_unguarded
let database_of_string ?semantics text =
  guarded (database_of_string_unguarded ?semantics) text
let query_of_string = guarded query_of_string_unguarded
let deltas_of_string nb text = guarded (deltas_of_string_unguarded nb) text

let name_set nb names =
  let module B = Bipartite.Bigraph in
  let rec go acc = function
    | [] -> Ok acc
    | n :: rest -> (
      match index_of nb.left_names n with
      | Some i -> go (Iset.add (B.index nb.graph (B.L i)) acc) rest
      | None -> (
        match index_of nb.right_names n with
        | Some j -> go (Iset.add (B.index nb.graph (B.R j)) acc) rest
        | None -> Error n))
  in
  go Iset.empty names

(* A side's names go on as few [keyword] lines as the line cap allows
   (the parser accumulates repeated lines), so a side that fits on one
   line prints exactly as one line and a 10^5-node side still reads
   back. An empty side prints no line at all. *)
let add_name_lines buf keyword names =
  let len = ref 0 in
  Array.iter
    (fun name ->
      let tok = 1 + String.length name in
      if !len > 0 && !len + tok > max_line_bytes then begin
        Buffer.add_char buf '\n';
        len := 0
      end;
      if !len = 0 then begin
        Buffer.add_string buf keyword;
        len := String.length keyword
      end;
      Buffer.add_char buf ' ';
      Buffer.add_string buf name;
      len := !len + tok)
    names;
  if !len > 0 then Buffer.add_char buf '\n'

let bigraph_to_string nb =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "bipartite\n";
  add_name_lines buf "left" nb.left_names;
  add_name_lines buf "right" nb.right_names;
  Bipartite.Bigraph.iter_edges nb.graph (fun i j ->
      Buffer.add_string buf "edge ";
      Buffer.add_string buf nb.left_names.(i);
      Buffer.add_char buf ' ';
      Buffer.add_string buf nb.right_names.(j);
      Buffer.add_char buf '\n');
  Buffer.contents buf

let schema_to_string schema =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "schema\n";
  List.iter
    (fun name ->
      Buffer.add_string buf
        (Printf.sprintf "relation %s %s\n" name
           (String.concat " " (Datamodel.Schema.relation_attrs schema name))))
    (Datamodel.Schema.relation_names schema);
  Buffer.contents buf

let hypergraph_to_string h ~node_names ~edge_names =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "hypergraph\n";
  Buffer.add_string buf
    ("nodes " ^ String.concat " " (Array.to_list node_names) ^ "\n");
  Array.iteri
    (fun i e ->
      Buffer.add_string buf
        (Printf.sprintf "edge %s %s\n" edge_names.(i)
           (String.concat " "
              (List.map (fun v -> node_names.(v)) (Iset.elements e)))))
    (Hypergraph.edges h);
  Buffer.contents buf

let database_to_string db =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "database\n";
  List.iter
    (fun (name, r) ->
      Buffer.add_string buf
        (Printf.sprintf "relation %s %s\n" name
           (String.concat " " (Relalg.Relation.attrs r))))
    (Relalg.Database.relations db);
  List.iter
    (fun (name, r) ->
      List.iter
        (fun row ->
          Buffer.add_string buf
            (Printf.sprintf "row %s %s\n" name (String.concat " " row)))
        (Relalg.Relation.tuples r))
    (Relalg.Database.relations db);
  Buffer.contents buf
