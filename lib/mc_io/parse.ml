open Graphs
open Hypergraphs

type named_bigraph = {
  graph : Bipartite.Bigraph.t;
  left_names : string array;
  right_names : string array;
}

type error = Runtime.Errors.t

let pp_error = Runtime.Errors.pp

(* Hard input caps: parsers sit on attacker-reachable boundaries (CLI
   files, server request bodies), so unbounded input must become a
   typed error before it becomes resident tokens. The total is checked
   before anything is scanned, each line as the cursor reaches it. The
   limits are far above any legitimate instance file while keeping the
   worst-case allocation proportional to a small constant times the
   cap. *)
let max_input_bytes = 8 * 1024 * 1024
let max_line_bytes = 64 * 1024

let parse_error line col msg = Runtime.Errors.Parse_error { line; col; msg }

let too_large text =
  let n = String.length text in
  if n > max_input_bytes then
    Some
      (parse_error 0 0
         (Printf.sprintf "input exceeds %d bytes (%d)" max_input_bytes n))
  else None

(* A parse error, and a line over the cap. The cap outranks any parse
   error: a parser that stops early still scans the rest of the text
   for an oversized line before it reports. *)
exception Fail of error
exception Oversized of error

let fail line col fmt =
  Printf.ksprintf (fun msg -> raise (Fail (parse_error line col msg))) fmt

(* The one scanner behind every format. A cursor walks the text a line
   at a time and yields each token as an (offset, length) pair into it,
   so nothing is copied until a parser keeps a token. A line ends at
   its '\n', or at the '\r' of a "\r\n", or at the end of the text; a
   '#' comments out the rest of it; spaces and tabs separate tokens.
   Lines and tokens are found in the same pass over the bytes, and a
   line is checked against the cap when its end is reached — so a
   parser reads each line until [next_token] says it is over. *)
type cursor = {
  text : string;
  len : int;
  mutable lineno : int;  (* 1-based number of the current line *)
  mutable bol : int;  (* offset of its first byte *)
  mutable next : int;  (* offset of the following line; > [len] at the end *)
  mutable pos : int;  (* scan position on the current line *)
  mutable tok : int;  (* offset of the current token *)
  mutable tok_len : int;
}

let cursor text =
  {
    text;
    len = String.length text;
    lineno = 0;
    bol = 0;
    next = 0;
    pos = 0;
    tok = 0;
    tok_len = 0;
  }

let is_blank ch = ch = ' ' || ch = '\t'

(* A token ends at a blank, a '#', a line end or the end of the text. *)
let ends_token text n q =
  match String.unsafe_get text q with
  | ' ' | '\t' | '#' | '\n' -> true
  | '\r' -> q + 1 < n && String.unsafe_get text (q + 1) = '\n'
  | _ -> false

(* Every byte above '#' is a token byte: the test that needs
   [ends_token] runs only on the few below it. *)
let token_end text off =
  let n = String.length text in
  let q = ref off in
  while
    !q < n
    && (String.unsafe_get text !q > '#' || not (ends_token text n !q))
  do
    incr q
  done;
  !q

(* The end of the line that holds [off]: its '\n', the '\r' of its
   "\r\n", or the end of the text. *)
let line_end text off =
  let n = String.length text in
  match String.index_from text off '\n' with
  | nl ->
    if nl > off && String.unsafe_get text (nl - 1) = '\r' then nl - 1 else nl
  | exception Not_found -> n

(* The current line ends at [eol]: the cursor moves past its line
   break, and the line is held against the cap. *)
let finish_line c eol =
  c.pos <- eol;
  c.next <-
    (if eol >= c.len then c.len + 1
     else if String.unsafe_get c.text eol = '\r' then eol + 2
     else eol + 1);
  if eol - c.bol > max_line_bytes then
    raise
      (Oversized
         (parse_error c.lineno 0
            (Printf.sprintf "line exceeds %d bytes (%d)" max_line_bytes
               (eol - c.bol))))

(* Steps onto the next line; false past the last one. *)
let advance c =
  c.next <= c.len
  && begin
       c.lineno <- c.lineno + 1;
       c.bol <- c.next;
       c.pos <- c.next;
       true
     end

(* Steps onto the next token of the current line; false at its end. *)
let next_token c =
  let text = c.text and n = c.len in
  let p = ref c.pos in
  while !p < n && is_blank (String.unsafe_get text !p) do
    incr p
  done;
  let p = !p in
  if p < n && (String.unsafe_get text p > '#' || not (ends_token text n p))
  then begin
    let q = token_end text (p + 1) in
    c.tok <- p;
    c.tok_len <- q - p;
    c.pos <- q;
    true
  end
  else begin
    finish_line c
      (if p < n && String.unsafe_get text p = '#' then line_end text p else p);
    false
  end

(* Steps onto the first token of the next line that has one. *)
let rec next_line c = advance c && (next_token c || next_line c)

(* After a parse error: the rest of the text, from the start of the
   line it was found on, against the line cap. *)
let check_rest c =
  if c.lineno > 0 then begin
    c.next <- c.bol;
    c.lineno <- c.lineno - 1
  end;
  while advance c do
    finish_line c (line_end c.text c.bol)
  done

let column c = c.tok - c.bol + 1
let token c = String.sub c.text c.tok c.tok_len

(* The [len] bytes of [a] at [ai] and of [b] at [bi] are equal. *)
let rec bytes_equal a ai b bi len =
  len <= 0
  || String.unsafe_get a ai = String.unsafe_get b bi
     && bytes_equal a (ai + 1) b (bi + 1) (len - 1)

(* [name] equals the [len] bytes of [s] at [off]. *)
let sub_equal name s off len =
  String.length name = len && bytes_equal name 0 s off len

let token_is c word = sub_equal word c.text c.tok c.tok_len

(* Line and column of byte [off], by rescanning: only errors ask. *)
let position text off =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to off - 1 do
    if String.unsafe_get text i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, off - !bol + 1)

(* The token lists the line-oriented formats are written against:
   [(lineno, cols, tokens)] per line with a token, [cols] (1-based)
   parallel to [tokens]. *)
let tokenize text =
  let c = cursor text in
  let lines = ref [] in
  while next_line c do
    let cols = ref [ column c ] and toks = ref [ token c ] in
    while next_token c do
      cols := column c :: !cols;
      toks := token c :: !toks
    done;
    lines := (c.lineno, List.rev !cols, List.rev !toks) :: !lines
  done;
  List.rev !lines

(* Column of the [k]-th token on a line; 0 (column unknown) past the end. *)
let col_at cols k =
  match List.nth_opt cols k with Some c -> c | None -> 0

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let err line col fmt =
  Printf.ksprintf (fun msg -> Error (parse_error line col msg)) fmt

let expect_header want = function
  | (_, _, [ h ]) :: rest when h = want -> Ok rest
  | (i, cs, _) :: _ ->
    err i (col_at cs 0) "expected a single '%s' header line" want
  | [] -> err 0 0 "empty input (expected '%s' header)" want

(* A line-oriented parser behind both caps. *)
let of_lines parse text =
  match too_large text with
  | Some e -> Error e
  | None -> (
    match tokenize text with
    | lines -> parse lines
    | exception Oversized e -> Error e)

(* A linear scan, for callers that look up a few names per call. *)
let index_of (arr : string array) name =
  let rec go i =
    if i >= Array.length arr then None
    else if String.equal arr.(i) name then Some i
    else go (i + 1)
  in
  go 0

(* FNV-1a over the [len] bytes of [s] at [off], high bits folded into
   the low ones that a table mask keeps. A whole string and the same
   bytes inside a larger text hash alike, so a name table built from
   strings answers lookups of tokens in place. *)
let hash_sub s off len =
  let h = ref (0xcbf29ce4 + len) in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

(* One side's name table: open addressing keyed by [hash_sub] with
   linear probing. A slot holds a 4-byte position plus one (0 marks an
   empty slot) in one flat [Bytes], at load <= 1/2; a hit is confirmed
   against the side's array. On a repeated name the first occurrence
   wins, as a left-to-right scan finds it, and [distinct] falls short
   of the array's length — which is how the bipartite parser detects
   duplicates within a side. Never mutated once built. *)
type side = {
  names : string array;
  slots : Bytes.t;
  mask : int;
  distinct : int;
}

let slot slots h = Int32.to_int (Bytes.get_int32_le slots (4 * h))

(* Place name [i] of [names] in [slots] by linear probing, unless an
   equal name holds a slot already; whether it was placed. *)
let insert slots mask names i =
  let s = names.(i) in
  let h = ref (hash_sub s 0 (String.length s) land mask) in
  let placed = ref false and seen = ref false in
  while not (!placed || !seen) do
    match slot slots !h with
    | 0 ->
      Bytes.set_int32_le slots (4 * !h) (Int32.of_int (i + 1));
      placed := true
    | k ->
      if String.equal names.(k - 1) s then seen := true
      else h := (!h + 1) land mask
  done;
  !placed

let side_index names =
  let n = Array.length names in
  let cap = ref 2 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  let slots = Bytes.make (4 * !cap) '\000' and mask = !cap - 1 in
  let distinct = ref 0 in
  for i = 0 to n - 1 do
    if insert slots mask names i then incr distinct
  done;
  { names; slots; mask; distinct = !distinct }

(* Position in the side's array of the [len] bytes of [s] at [off], or
   -1. *)
let find_sub side s off len =
  let h = ref (hash_sub s off len land side.mask) and found = ref (-2) in
  while !found = -2 do
    match slot side.slots !h with
    | 0 -> found := -1
    | k ->
      if sub_equal side.names.(k - 1) s off len then found := k - 1
      else h := (!h + 1) land side.mask
  done;
  !found

let find side s = find_sub side s 0 (String.length s)

type name_index = { left : side; right : side; nl : int }

let index nb =
  {
    left = side_index nb.left_names;
    right = side_index nb.right_names;
    nl = Bipartite.Bigraph.nl nb.graph;
  }

(* [side] extended by the one name appended to its array: a copy of
   the slot table with that name inserted, as [side_index] would place
   it after the others (a repeat of an earlier name stays unplaced). *)
let append_name side names =
  let slots = Bytes.copy side.slots in
  let placed = insert slots side.mask names (Array.length names - 1) in
  {
    names;
    slots;
    mask = side.mask;
    distinct = (if placed then side.distinct + 1 else side.distinct);
  }

(* Whether [names] is [side]'s array with one name appended, the same
   strings in front, and the table still at load <= 1/2 with it. *)
let appends_one side names =
  let k = Array.length side.names in
  Array.length names = k + 1
  && 2 * (k + 1) <= side.mask + 1
  &&
  let rec same i = i >= k || (names.(i) == side.names.(i) && same (i + 1)) in
  same 0

(* A side whose array is physically the indexed one keeps its table:
   deltas never touch the left names, and edge deltas neither side. A
   [+relation] appends one right name, which is inserted into a copy
   of the table; only a removal, or an append past load 1/2, rehashes
   the side. *)
let reindex ix nb =
  let keep side names =
    if side.names == names then side
    else if appends_one side names then append_name side names
    else side_index names
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

(* A growable int buffer. The bipartite parser keeps three: the token
   offsets of each side's names, and one int per edge. Ints carry no
   write barrier and give the GC no pointers to follow. *)
type offsets = { mutable offs : int array; mutable used : int }

let offsets () = { offs = [||]; used = 0 }

let push v x =
  if v.used = Array.length v.offs then begin
    let a = Array.make ((2 * v.used) + 256) 0 in
    Array.blit v.offs 0 a 0 v.used;
    v.offs <- a
  end;
  Array.unsafe_set v.offs v.used x;
  v.used <- v.used + 1

(* An edge is one int holding a pair: its endpoints' offsets into the
   text while it is read, their node indices once resolved. Both fit
   in [pair_bits], since no text is longer than [max_input_bytes]. *)
let pair_bits = 23
let pair_mask = (1 lsl pair_bits) - 1
let () = assert (max_input_bytes <= 1 lsl pair_bits)

let add_names c v keyword =
  let col = column c in
  if not (next_token c) then
    fail c.lineno col "'%s' line with no names" keyword;
  push v c.tok;
  while next_token c do
    push v c.tok
  done

(* An edge line's arity error points at its first extra name, or at
   the keyword when names are missing. *)
let add_edge c e =
  let col = column c in
  if not (next_token c) then
    fail c.lineno col "'edge' line needs two names, found 0";
  let a = c.tok in
  if not (next_token c) then
    fail c.lineno col "'edge' line needs two names, found 1";
  let b = c.tok in
  if next_token c then begin
    let col = column c and k = ref 3 in
    while next_token c do
      incr k
    done;
    fail c.lineno col "'edge' line needs two names, found %d" !k
  end;
  push e ((a lsl pair_bits) lor b)

let unknown text off what =
  let len = token_end text off - off in
  let line, col = position text off in
  fail line col "unknown %s node '%s'" what (String.sub text off len)

(* Resolves every edge's endpoints in place, against the side tables.
   The left endpoints go first, then the right ones, so each pass works
   in one table; a run of edges from one left node (the order
   [bigraph_to_string] writes) looks its name up once. The error is
   still the first unknown name in file order: the right pass stops at
   the first edge with an unknown left name. *)
let resolve_ends text e lidx ridx =
  let ends = e.offs and m = e.used in
  let prev_off = ref 0 and prev_len = ref (-1) and prev = ref 0 in
  let bad_left = ref m and k = ref 0 in
  while !k < m do
    let pair = Array.unsafe_get ends !k in
    let off = pair lsr pair_bits in
    let len = token_end text off - off in
    if not (len = !prev_len && bytes_equal text !prev_off text off len)
    then begin
      prev := find_sub lidx text off len;
      prev_off := off;
      prev_len := len
    end;
    if !prev < 0 then begin
      bad_left := !k;
      k := m
    end
    else begin
      Array.unsafe_set ends !k
        ((!prev lsl pair_bits) lor (pair land pair_mask));
      incr k
    end
  done;
  for k = 0 to !bad_left - 1 do
    let pair = Array.unsafe_get ends k in
    let off = pair land pair_mask in
    let j = find_sub ridx text off (token_end text off - off) in
    if j < 0 then unknown text off "right";
    Array.unsafe_set ends k ((pair land lnot pair_mask) lor j)
  done;
  if !bad_left < m then
    unknown text (Array.unsafe_get ends !bad_left lsr pair_bits) "left"

(* The names at the offsets, each copied once out of the text. *)
let names_at text v =
  Array.init v.used (fun i ->
      let off = Array.unsafe_get v.offs i in
      String.sub text off (token_end text off - off))

(* One pass of the cursor over the text, then passes over the edges:
   a line keeps only token offsets, each name is copied once out of
   the text into its side's array, each side is indexed in its table,
   every endpoint is resolved by hashing its bytes in place, and the
   graph is built in one direct-to-CSR pass. The side tables are
   returned with the graph: they are [index] of it. *)
let bigraph_of_cursor c =
  if not (next_line c) then
    fail 0 0 "empty input (expected 'bipartite' header)";
  let col = column c in
  if not (token_is c "bipartite") || next_token c then
    fail c.lineno col "expected a single 'bipartite' header line";
  let left = offsets () and right = offsets () and e = offsets () in
  while next_line c do
    if token_is c "edge" then add_edge c e
    else if token_is c "left" then add_names c left "left"
    else if token_is c "right" then add_names c right "right"
    else fail c.lineno (column c) "unknown directive '%s'" (token c)
  done;
  let left_names = names_at c.text left in
  let right_names = names_at c.text right in
  let lidx = side_index left_names and ridx = side_index right_names in
  if
    lidx.distinct <> left.used
    || ridx.distinct <> right.used
    || Array.exists (fun s -> find lidx s >= 0) right_names
  then fail 0 0 "duplicate node name";
  resolve_ends c.text e lidx ridx;
  let graph =
    Bipartite.Bigraph.of_edge_iter ~nl:left.used ~nr:right.used (fun f ->
        for k = 0 to e.used - 1 do
          let pair = Array.unsafe_get e.offs k in
          f (pair lsr pair_bits) (pair land pair_mask)
        done)
  in
  ( { graph; left_names; right_names },
    { left = lidx; right = ridx; nl = left.used } )

let indexed_bigraph_of_string text =
  match too_large text with
  | Some e -> Error e
  | None -> (
    let c = cursor text in
    match bigraph_of_cursor c with
    | loaded -> Ok loaded
    | exception Oversized e -> Error e
    | exception Fail e -> (
      match check_rest c with
      | () -> Error e
      | exception Oversized e -> Error e))

let bigraph_of_string text = Result.map fst (indexed_bigraph_of_string text)

let schema_of_lines lines =
  match expect_header "schema" lines with
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

let hypergraph_of_lines lines =
  match expect_header "hypergraph" lines with
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

let database_of_lines ?semantics lines =
  match expect_header "database" lines with
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
   sequential semantics. Each op is applied here once, to validate it,
   and the graph it produced is kept with it, so the engine patches
   its plan around that graph instead of applying the op again. Names
   resolve through a [name_index] of the schema as evolved so far;
   after each op it is [reindex]ed on first use, so a side is rebuilt
   only when its names changed and a later line looks one up. *)
let delta_steps ?names nb lines =
  let module D = Bipartite.Delta in
  match expect_header "deltas" lines with
  | Error e -> Error e
  | Ok lines ->
    let remove_at j arr =
      Array.init (Array.length arr - 1) (fun k ->
          arr.(if k < j then k else k + 1))
    in
    let rec consume ix nb steps = function
      | [] -> Ok (List.rev steps, nb, ix)
      | (i, cs, toks) :: rest ->
        let left c a =
          let la = find (Lazy.force ix).left a in
          if la >= 0 then Ok la else err i c "unknown left node '%s'" a
        in
        let right c r =
          let j = find (Lazy.force ix).right r in
          if j >= 0 then Ok j else err i c "unknown relation '%s'" r
        in
        (* Apply as we go: later lines must validate against the
           evolved schema, and an op the engine would reject must die
           here with a line number, not downstream without one. *)
        let step op rename =
          match D.apply nb.graph op with
          | Error msg -> err i (col_at cs 0) "%s" msg
          | Ok graph ->
            let nb = rename { nb with graph } in
            consume
              (lazy (reindex (Lazy.force ix) nb))
              nb ((op, graph) :: steps) rest
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
          let ix = Lazy.force ix in
          if find ix.left name >= 0 || find ix.right name >= 0 then
            err i (col_at cs 1) "duplicate node name '%s'" name
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
    let ix =
      match names with Some ix -> Lazy.from_val ix | None -> lazy (index nb)
    in
    consume ix nb [] lines

let deltas_of_lines ?names nb lines =
  Result.map
    (fun (steps, nb, _) -> (List.map fst steps, nb))
    (delta_steps ?names nb lines)

let delta_steps_of_lines ?names nb lines =
  Result.map
    (fun (steps, nb, ix) -> (steps, nb, Lazy.force ix))
    (delta_steps ?names nb lines)

let query_of_text text =
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

let schema_of_string = of_lines schema_of_lines
let hypergraph_of_string = of_lines hypergraph_of_lines
let database_of_string ?semantics text =
  of_lines (database_of_lines ?semantics) text

let deltas_of_string ?names nb = of_lines (deltas_of_lines ?names nb)
let delta_steps_of_string ?names nb = of_lines (delta_steps_of_lines ?names nb)

let query_of_string text =
  match too_large text with
  | Some e -> Error e
  | None -> (
    match check_rest (cursor text) with
    | () -> query_of_text text
    | exception Oversized e -> Error e)

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
