open Graphs

type op =
  | Add_edge of int * int
  | Remove_edge of int * int
  | Add_relation of Iset.t
  | Remove_relation of int

let to_string = function
  | Add_edge (i, j) -> Printf.sprintf "+edge %d %d" i j
  | Remove_edge (i, j) -> Printf.sprintf "-edge %d %d" i j
  | Add_relation attrs ->
    let b = Buffer.create 32 in
    Buffer.add_string b "+relation";
    Iset.iter (fun i -> Printf.bprintf b " %d" i) attrs;
    Buffer.contents b
  | Remove_relation j -> Printf.sprintf "-relation %d" j

let pp ppf op = Format.pp_print_string ppf (to_string op)

let check_left g i what =
  if i < 0 || i >= Bigraph.nl g then
    Error (Printf.sprintf "%s: left index %d out of range [0, %d)" what i
             (Bigraph.nl g))
  else Ok ()

let check_right g j what =
  if j < 0 || j >= Bigraph.nr g then
    Error (Printf.sprintf "%s: right index %d out of range [0, %d)" what j
             (Bigraph.nr g))
  else Ok ()

let ( let* ) = Result.bind

(* The no-op cases (re-adding a present edge, removing an absent one)
   return [g] itself — physical equality is the signal [apply_delta]
   uses to skip recompilation entirely, so it must never be diluted by
   an equal-but-fresh record. *)
let apply g op =
  match op with
  | Add_edge (i, j) ->
    let* () = check_left g i "+edge" in
    let* () = check_right g j "+edge" in
    if Bigraph.mem_edge g i j then Ok g else Ok (Bigraph.add_edge g i j)
  | Remove_edge (i, j) ->
    let* () = check_left g i "-edge" in
    let* () = check_right g j "-edge" in
    if Bigraph.mem_edge g i j then Ok (Bigraph.remove_edge g i j) else Ok g
  | Add_relation attrs ->
    let* () =
      Iset.fold
        (fun i acc ->
          let* () = acc in
          check_left g i "+relation")
        attrs (Ok ())
    in
    Ok (Bigraph.add_relation g attrs)
  | Remove_relation j ->
    let* () = check_right g j "-relation" in
    Ok (Bigraph.remove_relation g j)

let apply_all g ops =
  let rec go g k = function
    | [] -> Ok g
    | op :: rest -> (
      match apply g op with
      | Ok g' -> go g' (k + 1) rest
      | Error msg -> Error (Printf.sprintf "delta %d (%s): %s" k (to_string op) msg))
  in
  go g 1 ops
