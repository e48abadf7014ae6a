module Bigraph = Bipartite.Bigraph
module Tree = Steiner.Tree
module Iset = Graphs.Iset

let name_of (nb : Mc_io.Parse.named_bigraph) v =
  match Bigraph.node_of_index nb.Mc_io.Parse.graph v with
  | Bigraph.L i -> nb.Mc_io.Parse.left_names.(i)
  | Bigraph.R j -> nb.Mc_io.Parse.right_names.(j)

let method_name = function
  | Engine.Session.Used_forest -> "forest paths (exact and unique)"
  | Engine.Session.Used_algorithm2 -> "Algorithm 2 (exact, Theorem 5)"
  | Engine.Session.Used_exact_dp -> "Dreyfus-Wagner (exact)"
  | Engine.Session.Used_elimination -> "nonredundant elimination (heuristic)"
  | Engine.Session.Used_mst_approx -> "MST approximation (ratio <= 2)"

(* Plain [Buffer.add_string]s: this runs once per served request, and
   format interpretation would cost more than the bytes it writes. *)
let add_tree_block b nb (tree : Tree.t) =
  Buffer.add_string b "tree nodes (";
  Buffer.add_string b (string_of_int (Tree.node_count tree));
  Buffer.add_string b "): ";
  let first = ref true in
  Iset.iter
    (fun v ->
      if not !first then Buffer.add_string b ", ";
      first := false;
      Buffer.add_string b (name_of nb v))
    tree.Tree.nodes;
  Buffer.add_char b '\n';
  List.iter
    (fun (x, y) ->
      Buffer.add_string b "  ";
      Buffer.add_string b (name_of nb x);
      Buffer.add_string b " -- ";
      Buffer.add_string b (name_of nb y);
      Buffer.add_char b '\n')
    tree.Tree.edges

let tree_block nb tree =
  let b = Buffer.create 128 in
  add_tree_block b nb tree;
  Buffer.contents b

let solution_block nb (s : Engine.Session.solution) =
  let b = Buffer.create 256 in
  Buffer.add_string b "method: ";
  Buffer.add_string b (method_name s.Engine.Session.method_used);
  Buffer.add_char b '\n';
  add_tree_block b nb s.Engine.Session.tree;
  Buffer.contents b

let error_line e = "error: " ^ Runtime.Errors.to_string e ^ "\n"

let unknown_terminal_line n = Printf.sprintf "error: unknown terminal %s\n" n
