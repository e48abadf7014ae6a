(* Trace fold: per-span-name call counts, total time and self time, from
   the CLI's --trace NDJSON or from an in-process Observe.Trace. A span's
   self time is its duration minus the durations of its direct
   children. *)

module Json = Observe.Json
module Trace = Observe.Trace

type span = {
  id : int;
  parent : int;
  name : string;
  dur_us : float;
  ran : bool;  (** a rung span whose outcome attribute is "ran" *)
}

type row = {
  mutable count : int;
  mutable total_us : float;
  mutable self_us : float;
  mutable ran : int;
}

let of_trace t =
  List.map
    (fun (s : Trace.span) ->
      {
        id = s.id;
        parent = s.parent;
        name = s.name;
        dur_us = Float.max 0. s.dur_s *. 1e6;
        ran = Trace.find_attr s "outcome" = Some (Trace.Str "ran");
      })
    (Trace.spans t)

let of_ndjson text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         let j = Json.parse_exn line in
         let field k =
           match Json.member k j with
           | Some v -> v
           | None -> failwith ("trace line without " ^ k ^ ": " ^ line)
         in
         let num k =
           match field k with
           | Json.Jnum f -> f
           | _ -> failwith ("trace field " ^ k ^ " is not a number")
         in
         let ran =
           match Option.bind (Json.member "attrs" j) (Json.member "outcome") with
           | Some (Json.Jstr "ran") -> true
           | _ -> false
         in
         {
           id = int_of_float (num "id");
           parent = int_of_float (num "parent");
           name =
             (match field "name" with
             | Json.Jstr s -> s
             | _ -> failwith "trace field name is not a string");
           dur_us = num "dur_us";
           ran;
         })

let fold spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (s.dur_us
          +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    spans;
  let rows = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let r =
        match Hashtbl.find_opt rows s.name with
        | Some r -> r
        | None ->
          let r = { count = 0; total_us = 0.; self_us = 0.; ran = 0 } in
          Hashtbl.add rows s.name r;
          r
      in
      r.count <- r.count + 1;
      r.total_us <- r.total_us +. s.dur_us;
      r.self_us <-
        r.self_us +. s.dur_us
        -. Option.value ~default:0. (Hashtbl.find_opt children s.id);
      if s.ran then r.ran <- r.ran + 1)
    spans;
  rows

(* Time covered by the spans that have no parent: the part of a run the
   trace can attribute. *)
let root_us spans =
  List.fold_left
    (fun acc s -> if s.parent = 0 then acc +. s.dur_us else acc)
    0. spans

let total_us rows name =
  match Hashtbl.find_opt rows name with Some r -> r.total_us | None -> 0.

(* Rows whose name starts with [prefix], e.g. every "rung:" span. *)
let with_prefix rows prefix =
  Hashtbl.fold
    (fun name r acc ->
      if String.starts_with ~prefix name then r :: acc else acc)
    rows []

let print oc rows =
  let sorted =
    Hashtbl.fold (fun name r acc -> (name, r) :: acc) rows []
    |> List.sort (fun (_, a) (_, b) -> compare b.total_us a.total_us)
  in
  Printf.fprintf oc "%-28s %8s %12s %12s\n" "span" "count" "total_ms" "self_ms";
  List.iter
    (fun (name, r) ->
      Printf.fprintf oc "%-28s %8d %12.3f %12.3f\n" name r.count
        (r.total_us /. 1e3) (r.self_us /. 1e3))
    sorted
